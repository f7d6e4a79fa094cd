"""Ground-truth circuit polynomials, by three exact routes.

The full polynomial of a graph sums, over all permutations of the vertex set,
the product of matrix entries x_i + b_i on fixed points and arc weights along
longer cycles, times w_l per cycle of length l.  The enumeration route
computes it by one forward sweep over the sets of covered vertices, the
directed cycles on one vertex set entering once with their arc weights
summed; it equals the permutation sum.  A frontier table over (vertex set,
last vertex) gives those cycle sums (Held & Karp, 1962).  When the weights
are rational and not all integers, every route runs on integers: every
weight is scaled by the lcm D of the denominators, and the result is divided
by a power of D once at the end.

Specializations assign values to the w variables and fix the sign convention
for loop weights.  Two of them have routes of their own that enumerate no
cycle.  In the two characteristic modes the simple polynomial is a
determinant, and it is computed as one, by Berkowitz's division-free
recurrence.  In the permanental mode the polynomial is a permanent, and it is
computed row by row over the sets of columns taken.  That costs the live
column sets times the terms of their values, and the bandwidth of the row
order bounds the live sets, whatever the number of cycles.  Float weights are
summed in another order there than in the cycle sums, so they may round
differently from the enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping, Sequence

from .graph import Graph
from .poly import Poly, Var, X, _from_keys, _key, wvar, xvar

DEFAULT_CAP = 9


class OracleCapExceeded(ValueError):
    """Raised when a graph has more vertices than the cap."""


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
# every component weight -1: (-1)^p * det(x*I - (diag b - A)) on every graph
CHARACTERISTIC_UNIFORM = WeightMode("characteristic-uniform", sigma_b=-1, w1=-1, w2=-1, w_rest=-1)
# det(x*I - A - diag b)
CHARACTERISTIC_STANDARD = WeightMode("characteristic-standard", sigma_b=-1, w1=1, w2=-1, w_rest=-1)
MATCHING_PLUS = WeightMode("matching-plus", w1=1, w2=1, w_rest=0)
MATCHING_MINUS = WeightMode("matching-minus", sigma_b=-1, w1=-1, w2=-1, w_rest=0)

MODES = {m.name: m for m in (GENERIC, UNDIRECTED_COVERS, PERMANENTAL, CHARACTERISTIC_UNIFORM,
                             CHARACTERISTIC_STANDARD, MATCHING_PLUS, MATCHING_MINUS)}


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

    It takes one of three routes: a determinant in the simple characteristic
    modes, a permanent in the permanental modes, both described below, and
    otherwise the enumeration of cycle covers.

    The enumeration sweeps forward over covered vertex sets, each holding the
    sum over the ways to reach it as a term dict on Poly's keys, where
    multiplying in a factor adds its key.  A set is extended once, at its
    lowest uncovered vertex v, by a fixed point with factor (x_v + b_v) * w_1
    or by the directed cycles with lowest vertex v on a vertex set of size l,
    with factor w_l times their summed arc weights, then dropped; the sets
    that reach it cover fewer of 1..v, so it is extended after all of them.
    Float sums may round differently from those of a cover recursion.

    The mode and the vertex names are applied to these factors before the
    sweep, so every reached set holds a polynomial in the variables the mode
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

    The simple characteristic modes skip the table and the sweep: when
    names is None, collapse_x is set, x_to_one is not, sigma_b = -1,
    w1 = +-1 and w_l = -1 for every l >= 2, the polynomial is
    w1^p * det(x*I - (diag b + w1 * A)), that is det(x*I - A - diag b) in
    characteristic-standard and (-1)^p * det(x*I - (diag b - A)) in
    characteristic-uniform, odd cycles and loops included.  It is computed
    as that determinant by Berkowitz's division-free recurrence, exactly and
    in polynomial time: O(p^2 * (p + number of arcs)) coefficient
    operations, whatever the cycles, so grids and ladders that the
    enumeration cannot reach take a fraction of a second, while long paths
    and cycles, which the enumeration walks in about p^2 steps, take longer
    than before.

    The permanental modes skip them too: when w1 = w2 = w_rest = 1 and
    neither halve_rest nor x_to_one is set, with or without collapse_x and
    names, the polynomial is per(diag(y_v + sigma_b * b_v) + A), computed by
    _permanental one row at a time over the sets of columns the rows so far
    have taken.  Its cost is the number of live column sets times the terms
    of their values, and the live sets are subsets of a band as wide as the
    bandwidth of the row order, Cuthill-McKee's unless the numbering is
    already as narrow as any: a 2 x 40 ladder takes a few milliseconds, a
    path of a thousand vertices a fraction of a second, while a complete
    graph still has 2^p sets.  It sums the products of a row's
    entries in another order than the cycle sums do, so float weights may
    round differently from the enumeration.  The vertex cap applies to every
    route; every other mode enumerates.

    When every weight is an int or a Fraction and one is a Fraction, each arc
    and loop weight is multiplied by the lcm D of their denominators, and the
    fixed-point choice carries D, so the sweep runs on integers.  A
    choice covering t vertices then carries D^t: D for a fixed point, D * b_v
    for a loop, D^|T| for the cycle sum of a set T.  Every complete cover
    carries exactly D^p, and each final coefficient is divided by D^p once;
    the division is exact in Fraction and integral results come back as int.
    Otherwise D = 1: nothing is scaled or divided, which covers float loops
    and complex arc weights.  The determinant route scales the same way and
    divides the coefficient of x^(p-k) by D^k; the permanent carries D once
    per row and divides by D^p.

    No route recurses, so OracleCapExceeded means only p > cap.  The cap is
    the only limit: under a raised cap, a graph with many covers runs until
    memory runs out.
    """
    p = g.p
    if p > cap:
        raise OracleCapExceeded(f"graph has {p} vertices, vertex cap is {cap}")
    arcs, loops, scale = _scaled_weights(g)
    if (names is None and mode.collapse_x and not mode.x_to_one and mode.sigma_b == -1
            and mode.w1 in (1, -1) and mode.w2 == mode.w_rest == -1):
        return _characteristic(p, arcs, loops, scale, mode.w1)
    if names is None:
        names = {v: X if mode.collapse_x else xvar(v) for v in range(1, p + 1)}
    if mode.w1 == mode.w2 == mode.w_rest == 1 and not mode.halve_rest and not mode.x_to_one:
        return _permanental(p, arcs, loops, scale, mode.sigma_b, names)
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
            atoms = [(bit, _key([(names[v], 1)]) + w1, scale * c1),
                     (bit, w1, mode.sigma_b * loops.get(v, 0) * c1)]
        for t, s in found.items():
            code, c = wmode[t.bit_count() - 1]
            atoms.append((t, code, s * c))
        choices[v] = [atom for atom in atoms if atom[2] != 0]
    reached: dict[int, dict] = {0: {0: 1}}  # covered set -> sum over the ways to reach it
    pending = {1: [0]}  # lowest uncovered vertex -> the reached sets to extend there
    for v in range(1, p + 1):
        for mask in pending.pop(v, ()):
            terms = reached.pop(mask)  # every set that reaches mask covers less of 1..v
            for t, code, c in choices[v]:
                if not t & mask:
                    covered = mask | t
                    d = reached.get(covered)
                    if d is None:
                        d = reached[covered] = {}
                        pending.setdefault((~covered & (covered + 1)).bit_length(), []).append(covered)
                    for key, coeff in terms.items():
                        key += code
                        d[key] = d.get(key, 0) + c * coeff
    terms = reached.get((1 << p) - 1, {})  # empty when some vertex has no choice
    if scale != 1:
        denom = scale ** p
        terms = {key: Fraction(c, denom) for key, c in terms.items()}
    return _from_keys(terms)


def _scaled_weights(g: Graph) -> tuple[dict, dict, int]:
    """g's arc and loop weights and their scale D.  When every weight is an
    int or a Fraction and one is a Fraction, D is the lcm of their
    denominators and the weights come back multiplied by it, as ints;
    otherwise D = 1 and they come back as they are."""
    arcs, loops = g.arcs, g.loops
    weights = [*arcs.values(), *loops.values()]
    if Fraction not in map(type, weights) or not all(isinstance(w, (int, Fraction)) for w in weights):
        return arcs, loops, 1
    scale = math.lcm(*(w.denominator for w in weights))
    return ({a: w.numerator * (scale // w.denominator) for a, w in arcs.items()},
            {v: b.numerator * (scale // b.denominator) for v, b in loops.items()}, scale)


def _characteristic(p: int, arcs: Mapping, loops: Mapping, scale: int, w1: int) -> Poly:
    """w1^p * det(x*I - (diag b + w1*A)) for the weights before scaling.

    Berkowitz's recurrence (Inf. Proc. Letters 18, 1984) adds the vertices
    one at a time.  With B the block of the vertices below v, c(x) =
    det(x*I - B), and R and C the arcs from v into B and from B into v, the
    block with v has the determinant
        (x - b_v) * c(x) - sum over k = 0..v-2 of (R B^k C) * quo(c(x), x^(k+1)).
    No step divides, so on the scaled weights it runs on integers, and the
    coefficient of x^(p-k) is divided by scale^k once at the end.  B^k C is a
    sparse vector pushed along the arcs of B: a step costs about v times the
    arcs below v, and nothing when v has no arc into B or none out of it.
    """
    below: list[list] = [[] for _ in range(p + 1)]  # below[v]: (u, n_vu) for u < v
    above: list[list] = [[] for _ in range(p + 1)]  # above[v]: (u, n_uv) for u < v
    for (i, j), w in arcs.items():
        if w1 < 0:
            w = -w
        if i > j:
            below[i].append((j, w))
        else:
            above[j].append((i, w))
    into: list[list] = [[] for _ in range(p + 1)]  # into[u]: (t, n_tu) within the block
    c = [1]  # descending coefficients of det(x*I - B)
    for v in range(1, p + 1):
        b = loops.get(v, 0)
        new = c + [0]
        if b:
            for n in range(1, v + 1):
                new[n] -= b * c[n - 1]
        row, col = below[v], above[v]
        if row and col:
            vec = dict(col)  # B^k C as {vertex: value}
            for k in range(v - 1):
                d = 0
                for u, w in row:
                    value = vec.get(u)
                    if value is not None:
                        d += w * value
                if d:
                    for i in range(v - 1 - k):
                        new[i + k + 2] -= d * c[i]
                if k == v - 2:
                    break
                nxt: dict = {}
                for u, value in vec.items():
                    for t, w in into[u]:
                        nxt[t] = nxt.get(t, 0) + w * value
                vec = nxt
                if not vec:
                    break
        c = new
        for u, w in row:
            into[u].append((v, w))
        into[v] = [*col, (v, b)] if b else col
    if w1 < 0 and p % 2:
        c = [-x for x in c]
    if scale != 1:
        c = [Fraction(x, scale ** k) for k, x in enumerate(c)]
    return Poly.from_univariate_coeffs(c)


def _permanental(p: int, arcs: Mapping, loops: Mapping, scale: int, sigma_b: int,
                 names: Mapping[int, Var]) -> Poly:
    """per(diag(y_v + sigma_b * b_v) + A), y_v = names[v], for the weights
    before scaling.

    The rows are added one at a time.  A state is the set of columns the rows
    so far have taken, as a bit mask, and its value a term dict on Poly's
    keys; row v extends it by each free column with a nonzero entry, the
    diagonal as the two atoms y_v * scale and sigma_b * b_v.  After a row,
    a state that lacks a column no later row can take is dropped, so the
    live states are the subsets of a band whose width is the bandwidth of
    the row order.  The rows go as numbered when no numbering is narrower,
    else in Cuthill-McKee order (ACM National Conference, 1969), see
    _row_order.  A symmetric permutation leaves the permanent unchanged, and
    each name stays with its vertex.  Every row carries one factor of scale,
    so each coefficient is divided by scale^p once at the end.
    """
    order = _row_order(p, arcs)
    row_of = [0] * (p + 1)
    for r, v in enumerate(order):
        row_of[v] = r
    rows = []  # each row's entries as (column bit, atoms (key, coefficient))
    for r, v in enumerate(order):
        diagonal = [(_key([(names[v], 1)]), scale)]
        if v in loops:
            diagonal.append((0, sigma_b * loops[v]))
        rows.append([(1 << r, diagonal)])
    last = list(range(p))  # each column's last row with an entry
    for (i, j), w in arcs.items():
        r, c = row_of[i], row_of[j]
        rows[r].append((1 << c, [(0, w)]))
        if r > last[c]:
            last[c] = r
    due = [0] * p  # due[r]: the columns no row after r can take
    for c, r in enumerate(last):
        due[r] |= 1 << c
    states: dict[int, dict] = {0: {0: 1}}
    for row, need in zip(rows, due):
        nxt: dict[int, dict] = {}
        for used, terms in states.items():
            for bit, atoms in row:
                state = used | bit
                if used & bit or state & need != need:
                    continue
                d = nxt.get(state)
                if d is None:
                    d = nxt[state] = {}
                for code, c in atoms:
                    for key, coeff in terms.items():
                        key += code
                        d[key] = d.get(key, 0) + c * coeff
        states = nxt
    terms = states[(1 << p) - 1]
    if scale != 1:
        denom = scale ** p
        terms = {key: Fraction(c, denom) for key, c in terms.items()}
    return _from_keys(terms)


def _row_order(p: int, arcs: Mapping) -> Sequence[int]:
    """The vertices in the order the permanent takes its rows, arcs counting
    in both directions.

    A band of width b holds at most b * p - b * (b + 1) / 2 edges, so when
    the edges do not fit in a band narrower than the numbering's own, the
    numbering already has the least bandwidth and is kept.  Otherwise the
    order is Cuthill-McKee's: breadth first from a least-degree vertex of
    each component, each vertex's unplaced neighbours by degree, ties by
    number.
    """
    edges = {(i, j) if i < j else (j, i) for i, j in arcs}
    narrower = max((j - i for i, j in edges), default=0) - 1
    if narrower * p - narrower * (narrower + 1) // 2 < len(edges):
        return range(1, p + 1)
    adjacent: list[set] = [set() for _ in range(p + 1)]
    for i, j in arcs:
        adjacent[i].add(j)
        adjacent[j].add(i)
    degree = list(map(len, adjacent))
    rank = sorted(range(1, p + 1), key=degree.__getitem__)
    place = dict(zip(rank, range(p))).__getitem__
    order: list[int] = []
    seen: set[int] = set()
    for start in rank:
        if start not in seen:
            seen.add(start)
            queue = [start]
            for v in queue:  # the loop reaches what it appends
                fresh = sorted(adjacent[v] - seen, key=place)
                seen.update(fresh)
                queue += fresh
            order += queue
    return order


def specialize(P: Poly, mode: WeightMode, g: Graph) -> Poly:
    """Apply a weight mode to a polynomial P of g in which each vertex
    variable x_v occurs only in factors (x_v + b_v), b_v the loop weight of v.

    The full polynomial is one such P: there x_v occurs only on a fixed point
    of a cover, always in that factor.  So P is a polynomial in the sums
    x_v + b_v, and substituting x_v -> x_v + (sigma_b - 1) * b_v turns every
    such factor into x_v + sigma_b * b_v exactly, x_v -> 1 - b_v turns it
    into 1, and collapse_x merges every x_v into x.  Each w_l in P is set to
    the mode's value, or, left symbolic, halved for l >= 3 under halve_rest.

    circuit_poly(g, cap, mode) gives the same polynomial from the full P
    without expanding it.
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

    circuit_poly runs in the mode's own weights, so numeric w_l enter as
    numbers and the matching modes' frontier table stops after the 2-cycles,
    but with sigma_b = +1 and halve_rest off, and with every unlooped vertex
    named x and every looped vertex v named x_v.  Its result
    has at most (p + 1) * 2^loops terms, and x_v occurs in it only in factors
    (x_v + b_v); specialize then does what is left of the mode: the loop sign
    x_v -> x + (sigma_b - 1) * b_v, the halving of a symbolic w_l >= 3, and
    the collapse into x.  This costs about 2^loops times the sweep in x
    alone, not the full polynomial in x_1..x_p and w_1..w_p.  Float weights
    may round differently from specializing that full polynomial, since the
    w values enter inside the sweep and the loop sign after it.

    circuit_poly(g, cap, mode.simple()) would give the same polynomial
    without the 2^loops factor, and by a determinant in the characteristic
    modes.  Its one remaining CLI caller is `spectrum`; `poly`, the verify
    suites and the factor routes call circuit_poly(g, cap, mode.simple())
    directly.  Three benchmark tests hold spectrum on this route:
    tests/test_bench_targets.py::test_traced_run_records_probes wants an
    oracle.specialize span from spectrum,
    bench/test_bench.py::test_tracer_patches_every_alias_and_restores_them
    calls this function, and test_smoke_traced[small-graphs] wants a nonzero
    oracle.reenumerations count.  Switching spectrum, ROADMAP item 9, waits
    for the change to the benchmark in item 2.
    """
    names = {v: xvar(v) if g.loop(v) else X for v in range(1, g.p + 1)}
    swept = replace(mode, sigma_b=1, halve_rest=False, collapse_x=False)
    return specialize(circuit_poly(g, cap, swept, names), mode.simple(), g)


__all__ = [
    "DEFAULT_CAP", "OracleCapExceeded", "WeightMode", "GENERIC", "UNDIRECTED_COVERS",
    "PERMANENTAL", "CHARACTERISTIC_UNIFORM", "CHARACTERISTIC_STANDARD",
    "MATCHING_PLUS", "MATCHING_MINUS", "MODES", "mode_by_name",
    "circuit_poly", "specialize", "simple_circuit_poly",
]
