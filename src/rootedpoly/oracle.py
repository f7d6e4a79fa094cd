"""Ground-truth circuit polynomials by a recursion over covered vertex sets.

The full polynomial of a graph sums, over all permutations of the vertex set,
the product of matrix entries x_i + b_i on fixed points and arc weights along
longer cycles, times w_l per cycle of length l.  One memoized recursion over
the set of covered vertices computes it, the directed cycles on one vertex set
entering once with their arc weights summed; it equals the permutation sum.
A frontier table over (vertex set, last vertex) gives those cycle sums
(Held & Karp, 1962).  When the weights are rational and not all integers, the
recursion runs on integers: every weight is scaled by the lcm D of the
denominators, and each coefficient is divided by D^p once at the end.

Specializations assign values to the w variables and fix the sign convention
for loop weights; an independent cross-check, the exact determinant, lives
here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping

from .graph import Graph
from .poly import Poly, Var, X, _from_keys, _key, wvar, xvar

DEFAULT_CAP = 9


class OracleCapExceeded(ValueError):
    """Raised when a graph is too large for factorial-flavoured enumeration,
    or for the depth of the cover recursion."""


@dataclass(frozen=True)
class WeightMode:
    """A recipe for specializing the w variables and the loop-sign convention.

    w1/w2/w_rest of None keep the variable; halve_rest rescales w_j to w_j/2
    for j >= 3; x_to_one fixes every vertex variable to 1 with loop weights
    discarded; collapse_x merges all vertex variables into the single x.
    """

    name: str
    sigma_b: int = 1
    w1: int | None = None
    w2: int | None = None
    w_rest: int | None = None
    halve_rest: bool = False
    x_to_one: bool = False
    collapse_x: bool = False

    def simple(self) -> "WeightMode":
        return self if self.collapse_x else replace(self, collapse_x=True)

    def w_value(self, i: int) -> int | None:
        if i == 1:
            return self.w1
        if i == 2:
            return self.w2
        return self.w_rest

    @property
    def w1_unit(self) -> "Poly | int":
        """Weight of a one-vertex cover component under this specialization."""
        return Poly.variable(wvar(1)) if self.w1 is None else self.w1


GENERIC = WeightMode("generic")
# cover counting on undirected loopless graphs: each cycle of length >= 3
# picks up both orientations in its cycle sum, so its weight is halved
UNDIRECTED_COVERS = WeightMode("undirected-covers", halve_rest=True, x_to_one=True)
# per(x*I + A + diag b)
PERMANENTAL = WeightMode("permanental", w1=1, w2=1, w_rest=1)
# every component weight -1; matches a determinant only when all cycles are even
CHARACTERISTIC_UNIFORM = WeightMode("characteristic-uniform", sigma_b=-1, w1=-1, w2=-1, w_rest=-1)
# det(x*I - A - diag b)
CHARACTERISTIC_STANDARD = WeightMode("characteristic-standard", sigma_b=-1, w1=1, w2=-1, w_rest=-1)
MATCHING_PLUS = WeightMode("matching-plus", w1=1, w2=1, w_rest=0)
MATCHING_MINUS = WeightMode("matching-minus", sigma_b=-1, w1=-1, w2=-1, w_rest=0)
SIMPLE = WeightMode("simple", collapse_x=True)

MODES = {m.name: m for m in (GENERIC, UNDIRECTED_COVERS, PERMANENTAL, CHARACTERISTIC_UNIFORM,
                             CHARACTERISTIC_STANDARD, MATCHING_PLUS, MATCHING_MINUS, SIMPLE)}


def mode_by_name(name: str) -> WeightMode:
    try:
        return MODES[name]
    except KeyError:
        raise ValueError(f"unknown weight mode {name!r}; choose from {sorted(MODES)}") from None


# -- the full polynomial -----------------------------------------------------


def circuit_poly(g: Graph, cap: int = DEFAULT_CAP, mode: WeightMode = GENERIC,
                 names: Mapping[int, Var] | None = None) -> Poly:
    """Circuit polynomial of g under a weight mode, by default the full one
    in x_1..x_p and w_1..w_p.

    cover(covered) sums the covers of the other vertices.  The lowest of them,
    v, is a fixed point with factor (x_v + b_v) * w_1, or the lowest vertex of
    directed cycles on a vertex set of size l, with factor w_l times their
    summed arc weights.  The memo lives for one call; its term dicts are keyed
    by Poly's own monomial keys, so multiplying in a factor adds its key.

    The mode and the vertex names are applied to these factors before the
    recursion, so every memo entry is a polynomial in the variables the mode
    keeps.  A fixed point becomes (y_v + sigma_b * b_v) * w_1, where y_v is
    names[v] when names is given, else x under collapse_x, else x_v; under
    x_to_one it is w_1 alone and its loop is dropped.  w_l becomes its value,
    w_l / 2 under halve_rest for l >= 3, or stays symbolic; a numeric w_l
    multiplies the coefficient and adds nothing to the key.  The result is
    specialize(circuit_poly(g), mode, g) with x_v renamed to names[v].

    The cycle sums come from a frontier table: for each lowest vertex v,
    layer k maps (vertex set, last vertex) to the summed weights of the paths
    from v over k higher vertices, and an arc back to v closes them.  It holds
    only reachable states, so a sparse graph costs no more than a walk over
    its paths, and a dense one O(2^p * p^2) instead of one step per path.
    Paths that meet in a state are summed before they are extended, so float
    cycle sums may round differently from a path-by-path sum.  The table runs
    at most L layers, L the longest cycle length l whose w_l the mode keeps
    nonzero, a symbolic w_l counting as nonzero: L = p in the generic and
    characteristic modes, while in the matching modes, where w_l = 0 for
    l >= 3, the table holds only 2-cycles.

    When every weight is an int or a Fraction and one is a Fraction, each arc
    and loop weight is multiplied by the lcm D of their denominators, and the
    fixed-point choice carries D, so the recursion runs on integers.  A
    choice covering t vertices then carries D^t: D for a fixed point, D * b_v
    for a loop, D^|T| for the cycle sum of a set T.  Every complete cover
    carries exactly D^p, and each final coefficient is divided by D^p once;
    the division is exact in Fraction and integral results come back as int.
    Otherwise D = 1: nothing is scaled or divided, which covers float loops
    and complex arc weights.

    The recursion goes one level deeper per choice, so a graph of about a
    thousand vertices can exceed the interpreter's recursion limit whatever
    the cap; that raises OracleCapExceeded too.
    """
    p = g.p
    if p > cap:
        raise OracleCapExceeded(f"graph has {p} vertices, enumeration cap is {cap}")
    arcs, loops, scale = g.arcs, g.loops, 1
    weights = [*arcs.values(), *loops.values()]
    if Fraction in map(type, weights) and all(isinstance(w, (int, Fraction)) for w in weights):
        scale = math.lcm(*(w.denominator for w in weights))
        arcs = {a: w.numerator * (scale // w.denominator) for a, w in arcs.items()}
        loops = {v: b.numerator * (scale // b.denominator) for v, b in loops.items()}
    out: dict[int, list[tuple[int, object]]] = {v: [] for v in range(1, p + 1)}
    for (i, j), w in arcs.items():
        out[i].append((j, w))
    # the longest cycle whose weight the mode keeps nonzero; a symbolic w_l counts
    longest = max((l for l in range(1, p + 1) if mode.w_value(l) != 0), default=0)
    cycles: dict[int, dict] = {v: {} for v in range(1, p + 1)}  # lowest vertex -> {set: weight}
    for v, found in cycles.items():
        layer = {(1 << (v - 1), v): 1}
        for _ in range(longest):  # the k-th round closes the cycles of length k
            nxt: dict = {}
            for (used, u), acc in layer.items():
                for t, w in out[u]:
                    if t == v:
                        found[used] = found.get(used, 0) + acc * w
                    elif t > v and not used >> (t - 1) & 1:
                        state = (used | 1 << (t - 1), t)
                        nxt[state] = nxt.get(state, 0) + acc * w
            layer = nxt
            if not layer:
                break

    # w_l under the mode as (key, coefficient), for l = 1..p
    wmode = []
    for l in range(1, p + 1):
        value = mode.w_value(l)
        if value is not None:
            wmode.append((0, value))
        else:
            wmode.append((_key([(wvar(l), 1)]), Fraction(1, 2) if mode.halve_rest and l >= 3 else 1))
    # the choices at each lowest vertex v as (vertex set, key, coefficient)
    choices: dict[int, list[tuple[int, int, object]]] = {}
    for v, found in cycles.items():
        bit, (w1, c1) = 1 << (v - 1), wmode[0]
        if mode.x_to_one:
            atoms = [(bit, w1, scale * c1)]
        else:
            name = names[v] if names is not None else X if mode.collapse_x else xvar(v)
            atoms = [(bit, _key([(name, 1)]) + w1, scale * c1),
                     (bit, w1, mode.sigma_b * loops.get(v, 0) * c1)]
        for t, s in found.items():
            code, c = wmode[t.bit_count() - 1]
            atoms.append((t, code, s * c))
        choices[v] = [atom for atom in atoms if atom[2] != 0]
    memo = {(1 << p) - 1: {0: 1}}

    def cover(mask: int) -> dict[int, object]:
        if mask not in memo:
            d = memo[mask] = {}
            for t, code, c in choices[(~mask & (mask + 1)).bit_length()]:  # lowest uncovered v
                if not t & mask:
                    for key, coeff in cover(mask | t).items():
                        d[key + code] = d.get(key + code, 0) + c * coeff
        return memo[mask]

    try:
        terms = cover(0)
    except RecursionError:
        raise OracleCapExceeded(
            f"graph has {p} vertices, too many for the depth of the cover recursion") from None
    finally:
        del cover  # it calls itself; unbinding it frees the memo now, not at a garbage collection
    if scale != 1:
        denom = scale ** p
        terms = {key: Fraction(c, denom) for key, c in terms.items()}
    return _from_keys(terms)


def specialize(P: Poly, mode: WeightMode, g: Graph) -> Poly:
    """Apply a weight mode to the full polynomial P of g.

    In P a vertex variable x_v occurs only on a fixed point of a cover, and
    there always in the factor (x_v + b_v), so P is a polynomial in the sums
    x_v + b_v.  Substituting x_v -> x_v + (sigma_b - 1) * b_v therefore turns
    every such factor into x_v + sigma_b * b_v exactly, and x_v -> 1 - b_v
    turns it into 1.

    circuit_poly(g, cap, mode) gives the same polynomial without expanding
    the full one.  This route stays for simple_circuit_poly and as a check in
    the tests.
    """
    mapping: dict = {}
    for v in P.variables():
        if v.kind == 3:  # w variable
            val = mode.w_value(v.index)
            if val is not None:
                mapping[v] = val
            elif mode.halve_rest and v.index >= 3:
                mapping[v] = Poly.monomial([(v, 1)], Fraction(1, 2))
        elif v.kind == 1:  # per-vertex variable
            b = g.loop(v.index)
            shift = (mode.sigma_b - 1) * b
            if mode.x_to_one:
                mapping[v] = 1 - b
            elif mode.collapse_x:
                mapping[v] = Poly.variable(X) + shift
            elif shift:
                mapping[v] = Poly.variable(v) + shift
    return P.substitute_many(mapping)


def simple_circuit_poly(g: Graph, mode: WeightMode, cap: int = DEFAULT_CAP) -> Poly:
    """Specialized polynomial with all vertex variables collapsed into x.

    It still expands the full polynomial and then specializes it, where
    circuit_poly(g, cap, mode.simple()) would not.  Its one remaining CLI
    caller is `spectrum`; `poly`, the verify suites and the factor routes
    call circuit_poly directly.  Three benchmark tests hold spectrum on this
    route: tests/test_bench_targets.py::test_traced_run_records_probes wants
    an oracle.specialize span from spectrum,
    bench/test_bench.py::test_tracer_patches_every_alias_and_restores_them
    calls this function, and test_smoke_traced[small-graphs] wants a nonzero
    oracle.reenumerations count.  Switching spectrum waits for the change to
    the benchmark in ROADMAP item 2.
    """
    return specialize(circuit_poly(g, cap), mode.simple(), g)


# -- independent cross-checks -------------------------------------------------


def _adjacency(g: Graph) -> list[list]:
    a = [[0] * g.p for _ in range(g.p)]
    for (i, j), w in g.arcs.items():
        a[i - 1][j - 1] = w
    for v, b in g.loops.items():
        a[v - 1][v - 1] = b
    return a


def _det_fraction(m: list[list[Fraction]]) -> Fraction:
    n = len(m)
    m = [row[:] for row in m]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                f = m[r][col] * inv
                for c in range(col, n):
                    m[r][c] -= f * m[col][c]
    return det


def char_poly_det(g: Graph) -> Poly:
    """Monic det(x*I - A - diag b) via evaluation at p+1 integers and interpolation."""
    p = g.p
    a = _adjacency(g)
    points = list(range(p + 1))
    values = []
    for t in points:
        m = [[Fraction(t if r == c else 0) - Fraction(a[r][c]) for c in range(p)] for r in range(p)]
        values.append(_det_fraction(m))
    # Lagrange interpolation on the exact samples.
    coeffs = [Fraction(0)] * (p + 1)
    for k, t in enumerate(points):
        num = [Fraction(1)]
        denom = Fraction(1)
        for j, s in enumerate(points):
            if j == k:
                continue
            num = _poly_mul_linear(num, -Fraction(s))
            denom *= Fraction(t - s)
        scale = values[k] / denom
        for i, c in enumerate(num):
            coeffs[i] += scale * c
    coeffs.reverse()  # descending
    return Poly.from_univariate_coeffs(coeffs)


def _poly_mul_linear(coeffs: list[Fraction], c0: Fraction) -> list[Fraction]:
    # multiply ascending-coefficient poly by (x + c0)
    out = [Fraction(0)] * (len(coeffs) + 1)
    for i, c in enumerate(coeffs):
        out[i] += c * c0
        out[i + 1] += c
    return out


__all__ = [
    "DEFAULT_CAP", "OracleCapExceeded", "WeightMode", "GENERIC", "UNDIRECTED_COVERS",
    "PERMANENTAL", "CHARACTERISTIC_UNIFORM", "CHARACTERISTIC_STANDARD",
    "MATCHING_PLUS", "MATCHING_MINUS", "SIMPLE", "MODES", "mode_by_name",
    "circuit_poly", "specialize", "simple_circuit_poly", "char_poly_det",
]
