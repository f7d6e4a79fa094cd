"""Independent brute-force reference computations for the tests.

Everything here enumerates permutations or covers directly, with no shared
code paths with the production enumeration, so agreement is meaningful.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from rootedpoly.graph import Graph, from_edges
from rootedpoly.poly import Poly, wvar, xvar


def cycle_lengths(perm: tuple[int, ...]) -> list[int]:
    """Cycle lengths of a permutation given in one-line form on 1..n."""
    n = len(perm)
    seen = [False] * (n + 1)
    out = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        length = 0
        v = start
        while not seen[v]:
            seen[v] = True
            v = perm[v - 1]
            length += 1
        out.append(length)
    return out


def brute_circuit_poly(g: Graph, sigma_b: int = 1) -> Poly:
    """Permutation-expansion sum over all p! permutations, no pruning tricks."""
    total = Poly.zero()
    for perm in itertools.permutations(range(1, g.p + 1)):
        term = Poly.one()
        zero = False
        for i in range(1, g.p + 1):
            j = perm[i - 1]
            if i == j:
                term = term * (Poly.variable(xvar(i)) + sigma_b * g.loop(i))
            else:
                w = g.arc(i, j)
                if w == 0:
                    zero = True
                    break
                term = term * w
        if zero:
            continue
        for length in cycle_lengths(perm):
            term = term * Poly.variable(wvar(length))
        total = total + term
    return total


def brute_permanent(matrix: list[list[Poly]]) -> Poly:
    n = len(matrix)
    total = Poly.zero()
    for perm in itertools.permutations(range(n)):
        term = Poly.one()
        for i in range(n):
            term = term * matrix[i][perm[i]]
        total = total + term
    return total


def brute_determinant(matrix: list[list[Poly]]) -> Poly:
    n = len(matrix)
    total = Poly.zero()
    for perm in itertools.permutations(range(n)):
        sign = _perm_sign(perm)
        term = Poly.const(sign)
        for i in range(n):
            term = term * matrix[i][perm[i]]
        total = total + term
    return total


def _perm_sign(perm: tuple[int, ...]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        v = start
        while not seen[v]:
            seen[v] = True
            v = perm[v]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def x_matrix(g: Graph, diag_sign: int = 1, off_sign: int = 1) -> list[list[Poly]]:
    """Matrix with x_i + diag_sign*b_i on the diagonal and off_sign*a_ij off it."""
    out = []
    for i in range(1, g.p + 1):
        row = []
        for j in range(1, g.p + 1):
            if i == j:
                row.append(Poly.variable(xvar(i)) + diag_sign * g.loop(i))
            else:
                row.append(Poly.const(off_sign * g.arc(i, j)))
        out.append(row)
    return out


def undirected_cover_poly(g: Graph) -> Poly:
    """Covers of an unweighted undirected graph by isolated vertices, single
    edges and undirected cycles, each cycle counted once.  Weight w_n per
    n-vertex component."""
    adj: dict[int, set[int]] = {v: set() for v in range(1, g.p + 1)}
    for (i, j) in g.arcs:
        adj[i].add(j)
        adj[j].add(i)
    total = Poly.zero()

    def cover(uncovered: frozenset[int], acc: Poly):
        nonlocal total
        if not uncovered:
            total = total + acc
            return
        v = min(uncovered)
        rest = uncovered - {v}
        cover(rest, acc * Poly.variable(wvar(1)))
        for u in adj[v]:
            if u in rest:
                cover(rest - {u}, acc * Poly.variable(wvar(2)))
        # undirected cycles through v, enumerated with second vertex < last vertex
        def paths(current: int, used: frozenset[int], length: int, second: int):
            for nxt in adj[current]:
                if nxt == v and length >= 3 and second < current:
                    cover(uncovered - used, acc * Poly.variable(wvar(length)))
                elif nxt in uncovered and nxt not in used:
                    paths(nxt, used | {nxt}, length + 1, second)

        for second in adj[v]:
            if second in rest:
                paths(second, frozenset({v, second}), 2, second)

    cover(frozenset(range(1, g.p + 1)), Poly.one())
    return total


def six_vertex_tree() -> Graph:
    """Five-vertex path with a sixth vertex hanging off the middle; the two
    parts have three vertices each but cannot be swapped by any symmetry."""
    g = from_edges(6, [(1, 2), (2, 3), (3, 4), (4, 5), (3, 6)])
    return g.with_parts((1, 2, 1, 2, 1, 2))


def random_graph(rng, p: int, directed: bool = False, loops: bool = False,
                 density: float = 0.5) -> Graph:
    arcs = {}
    values = [Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2), Fraction(3, 2)]
    for i in range(1, p + 1):
        for j in range(1, p + 1):
            if i == j:
                continue
            if directed:
                if rng.random() < density:
                    arcs[(i, j)] = rng.choice(values)
            elif i < j and rng.random() < density:
                w = rng.choice(values)
                arcs[(i, j)] = w
                arcs[(j, i)] = w
    loop_map = {}
    if loops:
        for v in range(1, p + 1):
            if rng.random() < 0.4:
                loop_map[v] = rng.choice(values)
    return Graph(p=p, arcs=arcs, loops=loop_map)


def tree_char_value(parent: list[int], t: Fraction) -> Fraction:
    """det(t*I - A) of the unweighted tree in which each vertex v > 0 hangs
    from parent[v] < v.  Leaves are eliminated upwards, d(v) = t - sum of
    1/d(c) over the children c of v, and the determinant is the product of
    the d(v); every d(v) must be nonzero, as it is for t beyond the spectral
    radius."""
    d = [Fraction(t)] * len(parent)
    for v in range(len(parent) - 1, 0, -1):
        d[parent[v]] -= 1 / d[v]
    return Fraction(math.prod(x.numerator for x in d), math.prod(x.denominator for x in d))


def permanental_poly_check(g: Graph) -> Poly:
    """per(x*I + A + diag b) by inclusion-exclusion over column subsets
    (Ryser's formula), each row sum a polynomial of degree at most 1 in x."""
    p = g.p
    if p == 0:
        return Poly.one()
    a = [[g.arcs.get((i, j), 0) for j in range(1, p + 1)] for i in range(1, p + 1)]
    for v, b in g.loops.items():
        a[v - 1][v - 1] = b
    total = [0] * (p + 1)  # ascending coefficients
    for s in range(1, 1 << p):
        cols = [c for c in range(p) if s >> c & 1]
        prod = [1]  # ascending
        for r in range(p):
            const = sum(a[r][c] for c in cols)
            new = [c * const for c in prod] + [0]
            if s >> r & 1:
                for i, c in enumerate(prod):
                    new[i + 1] += c
            prod = new
        sign = (-1) ** (p - len(cols))
        for i, c in enumerate(prod):
            total[i] += sign * c
    return Poly.from_univariate_coeffs(total[::-1])


def cycle_index_sym(p: int) -> Poly:
    """Cycle index of the symmetric group on p points, as a polynomial in w's:
    the sum over partitions of p into j_k parts of size k of
    prod w_k**j_k / (k**j_k j_k!)."""
    total = Poly.zero()

    def partitions(remaining: int, max_part: int, counts: list[tuple[int, int]]):
        nonlocal total
        if remaining == 0:
            coeff = Fraction(1)
            for k, j in counts:
                coeff /= Fraction(k) ** j * math.factorial(j)
            total = total + Poly.monomial([(wvar(k), j) for k, j in counts], coeff)
            return
        for k in range(min(remaining, max_part), 0, -1):
            for j in range(remaining // k, 0, -1):
                partitions(remaining - k * j, k - 1, counts + [(k, j)])

    partitions(p, p, [])
    return total
