"""Reference computations that the benchmark checks the program against.

Nothing here imports rootedpoly, and none of it follows the program's
methods: determinants by Gaussian elimination over Fractions, permanents by
Ryser's formula, matching polynomials by vertex recursion, tree determinants
by leaf elimination, and dendrimers built vertex by vertex from their spec.
A graph is a triple (n, arcs, loops): arcs maps (i, j) to the weight of the
arc i -> j, loops maps i to its loop weight, vertices are 1..n and weights
are ints or Fractions.  Polynomials are lists of coefficients, lowest
degree first.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


class CheckError(AssertionError):
    """An output of the program disagrees with its reference."""


def graph_from_doc(doc: dict) -> tuple[int, dict, dict]:
    """Read the JSON graph document the benchmark writes (and the program's
    product output) into the (n, arcs, loops) triple."""
    n = doc["p"]
    arcs: dict = {}
    for a in doc.get("arcs", []):
        key = (a["from"], a["to"])
        arcs[key] = arcs.get(key, 0) + Fraction(a.get("w", 1))
    for e in doc.get("edges", []):
        w = Fraction(e.get("w", 1))
        for key in ((e["a"], e["b"]), (e["b"], e["a"])):
            arcs[key] = arcs.get(key, 0) + w
    loops: dict = {}
    for lp in doc.get("loops", []):
        loops[lp["at"]] = loops.get(lp["at"], 0) + Fraction(lp.get("b", 0))
    return n, arcs, loops


def matrix(n: int, arcs: dict, loops: dict) -> list[list[Fraction]]:
    """A + diag b as an n x n list of Fractions."""
    m = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), w in arcs.items():
        m[i - 1][j - 1] += Fraction(w)
    for i, b in loops.items():
        m[i - 1][i - 1] += Fraction(b)
    return m


def det(m: list[list[Fraction]]) -> Fraction:
    """Determinant by Gaussian elimination with exact pivots."""
    m = [row[:] for row in m]
    n = len(m)
    out = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            out = -out
        out *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                for k in range(c, n):
                    m[r][k] -= f * m[c][k]
    return out


def permanent(m: list[list[Fraction]]) -> Fraction:
    """Ryser's formula, with the subsets of columns visited in Gray-code
    order and the entries scaled to integers."""
    n = len(m)
    if n == 0:
        return Fraction(1)
    scale = 1
    for row in m:
        for x in row:
            scale = math.lcm(scale, Fraction(x).denominator)
    a = [[int(Fraction(x) * scale) for x in row] for row in m]
    sums = [0] * n
    total = 0
    prev = 0
    for k in range(1, 1 << n):
        gray = k ^ (k >> 1)
        col = (gray ^ prev).bit_length() - 1
        sign = 1 if gray >> col & 1 else -1
        for r in range(n):
            sums[r] += sign * a[r][col]
        prev = gray
        prod = 1
        for s in sums:
            prod *= s
            if not prod:
                break
        total += -prod if bin(gray).count("1") % 2 else prod
    total *= (-1) ** n
    return Fraction(total, scale ** n)


def interpolate(points: list[int], values: list[Fraction]) -> list[Fraction]:
    """Coefficients of the polynomial through (points, values), by Newton's
    divided differences."""
    n = len(points)
    dd = [Fraction(v) for v in values]
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (points[i] - points[i - level])
    coeffs = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        # coeffs := coeffs * (t - points[i]) + dd[i]
        shifted = [Fraction(0)] + coeffs[:-1]
        coeffs = [s - points[i] * c for s, c in zip(shifted, coeffs)]
        coeffs[0] += dd[i]
    return trim(coeffs)


def trim(coeffs: list) -> list:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


def char_poly(n: int, arcs: dict, loops: dict) -> list[Fraction]:
    """det(tI - A - diag b), sampled at t = 0..n and interpolated."""
    m = matrix(n, arcs, loops)
    points = list(range(n + 1))
    values = []
    for t in points:
        values.append(det([[(t if r == c else 0) - m[r][c] for c in range(n)] for r in range(n)]))
    return interpolate(points, values)


def perm_poly(n: int, arcs: dict, loops: dict) -> list[Fraction]:
    """per(tI + A + diag b), sampled at t = 0..n and interpolated."""
    m = matrix(n, arcs, loops)
    points = list(range(n + 1))
    values = []
    for t in points:
        values.append(permanent([[(t if r == c else 0) + m[r][c] for c in range(n)] for r in range(n)]))
    return interpolate(points, values)


def matching_poly(n: int, arcs: dict, loops: dict, sign: int) -> list[Fraction]:
    """Covers of the vertices by single vertices and 2-cycles.

    sign +1: a single vertex v weighs (t + b_v), a 2-cycle {u, v} weighs
    a_uv * a_vu.  sign -1: a single vertex weighs -(t - b_v), a 2-cycle
    -a_uv * a_vu.  Computed by deciding the lowest uncovered vertex first.
    """
    memo: dict[int, list[Fraction]] = {}
    full = (1 << n) - 1

    def rest(mask: int) -> list[Fraction]:
        if mask == full:
            return [Fraction(1)]
        if mask in memo:
            return memo[mask]
        v = next(i for i in range(1, n + 1) if not mask >> (i - 1) & 1)
        b = Fraction(loops.get(v, 0))
        sub = rest(mask | 1 << (v - 1))
        # (sign * t + b) * sub for sign +1 gives t + b, for -1 gives -(t - b)
        out = [Fraction(0)] * (len(sub) + 1)
        for k, c in enumerate(sub):
            out[k] += b * c
            out[k + 1] += sign * c
        for u in range(v + 1, n + 1):
            if mask >> (u - 1) & 1:
                continue
            w = Fraction(arcs.get((v, u), 0)) * Fraction(arcs.get((u, v), 0))
            if w:
                for k, c in enumerate(rest(mask | 1 << (v - 1) | 1 << (u - 1))):
                    out[k] += sign * w * c
        memo[mask] = trim(out)
        return memo[mask]

    return rest(0)


def evaluate(coeffs: list, t: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def evaluate_scaled(coeffs: list[int], a: int, b: int) -> int:
    """b**deg * p(a/b) for integer coefficients (lowest degree first), by
    Horner's rule on the homogenised form sum c_k a^k b^(deg-k)."""
    acc = 0
    bpow = 1
    for c in reversed(coeffs):
        acc = acc * a + c * bpow
        bpow *= b
    return acc


def tree_char_value(n: int, edges: dict, loops: dict, t: Fraction) -> Fraction:
    """det(tI - A - diag b) of a weighted tree by leaf elimination.

    Each vertex, taken leaves first, gets d(v) = t - b_v - sum over its
    children c of w(v, c)^2 / d(c); the determinant is the product of the
    d(v).  A zero d(c) raises ZeroDivisionError; callers pick t outside
    the spectrum of every subtree.
    """
    adj: dict[int, list[tuple[int, Fraction]]] = {v: [] for v in range(1, n + 1)}
    for (i, j), w in edges.items():
        if i < j:
            adj[i].append((j, Fraction(w)))
            adj[j].append((i, Fraction(w)))
    if sum(len(a) for a in adj.values()) != 2 * (n - 1):
        raise ValueError("not a tree: wrong edge count")
    order = [1]
    parent = {1: 0}
    for v in order:
        for u, _ in adj[v]:
            if u not in parent:
                parent[u] = v
                order.append(u)
    if len(order) != n:
        raise ValueError("not a tree: disconnected")
    d: dict[int, Fraction] = {}
    for v in reversed(order):
        val = Fraction(t) - Fraction(loops.get(v, 0))
        for u, w in adj[v]:
            if u != parent[v]:
                val -= w * w / d[u]
        d[v] = val
    out = Fraction(1)
    for v in order:
        out *= d[v]
    return out


# -- dendrimers built from their spec -------------------------------------


def dendrimer(spec: dict) -> tuple[int, dict, dict]:
    """The dendrimer of a spec document, built vertex by vertex.

    A branch of g tiers on a vertex v puts a copy of the unit with its root
    on v and, when g > 1, a branch of g - 1 tiers on the copy of each
    attach site.  Every core vertex carries a branch of `generations` tiers.
    """
    core_n, core_arcs, core_loops = graph_from_doc(spec["core"])
    unit_n, unit_arcs, unit_loops = graph_from_doc(spec["unit"])
    root = spec["unit"]["root"]
    sites = spec["attach_sites"]
    arcs = dict(core_arcs)
    loops = dict(core_loops)
    count = [core_n]

    def branch(v: int, tiers: int) -> None:
        if tiers == 0:
            return
        label = {root: v}
        for u in range(1, unit_n + 1):
            if u != root:
                count[0] += 1
                label[u] = count[0]
        for (i, j), w in unit_arcs.items():
            arcs[(label[i], label[j])] = w
        for u, b in unit_loops.items():
            loops[label[u]] = loops.get(label[u], 0) + b
        for s in sites:
            branch(label[s], tiers - 1)

    for v in range(1, core_n + 1):
        branch(v, spec["generations"])
    return count[0], arcs, loops


def dense_matrix(n: int, arcs: dict, loops: dict) -> np.ndarray:
    m = np.zeros((n, n))
    for (i, j), w in arcs.items():
        m[i - 1, j - 1] += float(w)
    for i, b in loops.items():
        m[i - 1, i - 1] += float(b)
    return m


def match_spectrum(found: list[tuple[complex, int]], expected: np.ndarray, scale: float) -> None:
    """Check roots with multiplicities against numerically computed eigenvalues.

    Each root of multiplicity m claims the m nearest unclaimed eigenvalues.
    A defective eigenvalue of multiplicity m is only computed to about
    (eps * scale)**(1/m), so the claimed ones must lie that close, and
    their mean, which is accurate to rounding, must match the root.
    """
    pool = [complex(z) for z in expected]
    if sum(m for _, m in found) != len(pool):
        raise CheckError(f"multiplicities sum to {sum(m for _, m in found)}, expected {len(pool)}")
    for value, mult in sorted(found, key=lambda vm: -vm[1]):
        pool.sort(key=lambda z: abs(z - value))
        claimed, pool = pool[:mult], pool[mult:]
        spread = max(abs(z - value) for z in claimed)
        if spread > 100 * (1e-15 * scale) ** (1 / mult) * scale + 1e-9 * scale:
            raise CheckError(f"root {value} (x{mult}) is {spread:.3g} from its eigenvalues")
        mean = sum(claimed) / mult
        if abs(mean - value) > 1e-7 * scale:
            raise CheckError(f"root {value} (x{mult}) differs from eigenvalue mean {mean}")


# -- self-test on cases known by hand ---------------------------------------


def self_test() -> None:
    """Check every reference against closed forms; raises CheckError."""

    def path_graph(n):
        arcs = {}
        for i in range(1, n):
            arcs[(i, i + 1)] = arcs[(i + 1, i)] = 1
        return n, arcs, {}

    def complete_graph(n):
        return n, {(i, j): 1 for i in range(1, n + 1) for j in range(1, n + 1) if i != j}, {}

    # P_n: p_0 = 1, p_1 = t, p_n = t p_(n-1) - p_(n-2), the Chebyshev U_n(t/2)
    cheb = [[Fraction(1)], [Fraction(0), Fraction(1)]]
    for n in range(2, 9):
        shifted = [Fraction(0)] + cheb[-1]
        prev = cheb[-2] + [Fraction(0)] * 2
        cheb.append(trim([s - p for s, p in zip(shifted, prev)]))
    for n in range(1, 9):
        if char_poly(*path_graph(n)) != cheb[n]:
            raise CheckError(f"char_poly(P_{n}) is not the Chebyshev form")
        for t in (Fraction(1, 3), Fraction(-5, 2), Fraction(7)):
            if tree_char_value(*path_graph(n), t) != evaluate(cheb[n], t):
                raise CheckError(f"leaf elimination on P_{n} at {t} is not the Chebyshev value")
        scaled = evaluate_scaled([int(c) for c in cheb[n]], -5, 2) / Fraction(2) ** n
        if scaled != evaluate(cheb[n], Fraction(-5, 2)):
            raise CheckError("scaled evaluation disagrees with Fraction evaluation")

    # K_n: char poly (t - n + 1)(t + 1)^(n - 1), spectrum {n-1, -1^(n-1)}, per(J_n) = n!
    for n in range(1, 8):
        expect = [Fraction(1)]
        for root in [n - 1] + [-1] * (n - 1):
            shifted = [Fraction(0)] + expect
            expect = [s - root * c for s, c in zip(shifted, expect + [Fraction(0)])]
        if char_poly(*complete_graph(n)) != expect:
            raise CheckError(f"char_poly(K_{n}) is not (t-{n - 1})(t+1)^{n - 1}")
        eig = np.linalg.eigvals(dense_matrix(*complete_graph(n)))
        match_spectrum([(complex(n - 1), 1)] + ([(-1 + 0j, n - 1)] if n > 1 else []), eig, n)
        ones = [[Fraction(1)] * n for _ in range(n)]
        if permanent(ones) != math.factorial(n):
            raise CheckError(f"per(J_{n}) != {n}!")

    # matchings of K_4: 1 empty, 6 single edges, 3 perfect matchings
    if matching_poly(*complete_graph(4), sign=1) != [3, 0, 6, 0, 1]:
        raise CheckError("matching polynomial of K_4 is not t^4 + 6t^2 + 3")
    if matching_poly(*complete_graph(4), sign=-1) != [3, 0, -6, 0, 1]:
        raise CheckError("signed matching polynomial of K_4 is not t^4 - 6t^2 + 3")

    # two tiers of the binary path(3) unit on one vertex: the complete binary
    # tree on 7 vertices, whose leaf elimination must agree with the determinant
    spec = {"core": {"p": 1}, "unit": {"p": 3, "edges": [{"a": 1, "b": 2}, {"a": 2, "b": 3}],
                                       "root": 2},
            "attach_sites": [1, 3], "generations": 2}
    n, arcs, loops = dendrimer(spec)
    if n != 7 or len(arcs) != 12:
        raise CheckError(f"dendrimer construction gave {n} vertices and {len(arcs)} arcs")
    ref = char_poly(n, arcs, loops)
    for t in (Fraction(1, 2), Fraction(-3), Fraction(10)):
        if tree_char_value(n, arcs, loops, t) != evaluate(ref, t):
            raise CheckError("leaf elimination disagrees with the determinant on a dendrimer")


if __name__ == "__main__":
    self_test()
    print("reference self-test passed")
