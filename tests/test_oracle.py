import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from _brute import (brute_char_poly, brute_circuit_poly, brute_determinant, brute_permanent,
                    char_det_at, cycle_index_sym, grid, ladder, lowest_vertex_matching_poly,
                    permanental_poly_check, random_graph, reweighted,
                    undirected_cover_poly, x_matrix)
from rootedpoly.graph import Graph, complete, cycle, k1, path, star
from rootedpoly.oracle import (CHARACTERISTIC_STANDARD, CHARACTERISTIC_UNIFORM, DEFAULT_CAP,
                               MATCHING_MINUS, MATCHING_PLUS, MODES, PERMANENTAL,
                               UNDIRECTED_COVERS, OracleCapExceeded, circuit_poly,
                               mode_by_name, simple_circuit_poly, specialize)
from rootedpoly.poly import Poly, X, parse_poly, wvar, xvar, yvar


def test_single_vertex_with_loop():
    assert circuit_poly(k1(loop=2)) == parse_poly("x1*w1 + 2*w1")


def test_single_edge():
    assert circuit_poly(complete(2)) == parse_poly("x1*x2*w1^2 + w2")


def test_triangle():
    want = parse_poly("x1*x2*x3*w1^3 + x1*w1*w2 + x2*w1*w2 + x3*w1*w2 + 2*w3")
    assert circuit_poly(complete(3)) == want


def test_empty_graph_is_one():
    assert circuit_poly(Graph(p=0)) == Poly.one()


def test_cap_enforced():
    with pytest.raises(OracleCapExceeded):
        circuit_poly(path(5), cap=4)


def test_cap_error_names_the_vertex_cap():
    with pytest.raises(OracleCapExceeded, match="^graph has 5 vertices, vertex cap is 4$"):
        circuit_poly(path(5), cap=4)


def test_long_path_under_a_raised_cap():
    """The cover sweep does not recurse, so graphs of more vertices than the
    interpreter's recursion limit run under a cap that admits them.  The
    matching-minus polynomial of a path follows P_n = w1 * x * P_(n-1) +
    w2 * P_(n-2) at w1 = w2 = -1, and the edgeless graph gives (-x)^p."""
    import sys

    assert sys.getrecursionlimit() < 1100
    mode = MATCHING_MINUS.simple()
    before, current = [1], [0, -1]  # P_0 and P_1, ascending
    for _ in range(1099):
        nxt = [0, *(-c for c in current)]
        for i, c in enumerate(before):
            nxt[i] -= c
        before, current = current, nxt
    assert circuit_poly(path(1100), 2000, mode) == Poly.from_univariate_coeffs(current[::-1])
    assert circuit_poly(Graph(p=1100), 2000, mode) == Poly.monomial([(X, 1100)])


@st.composite
def small_graphs(draw):
    rng = random.Random(draw(st.integers(0, 10 ** 9)))
    p = draw(st.integers(1, 5))
    return random_graph(rng, p, directed=draw(st.booleans()), loops=draw(st.booleans()))


# the two orientations of the triangle cancel on the vertex set {1, 2, 3}
OPPOSED_TRIANGLE = Graph(p=3, arcs={(1, 2): 1, (2, 3): 1, (3, 1): 1, (2, 1): -1, (3, 2): -1, (1, 3): -1})
# larger than the graphs drawn below, with a loop on every vertex
LOOPED_SEVEN = Graph(p=7, arcs=random_graph(random.Random(7), 7, directed=True).arcs,
                     loops={v: Fraction(v, 2) for v in range(1, 8)})
# arc denominators 2, 3 and 5 with a Fraction loop: the recursion runs on
# integers scaled by their lcm 30 and divides by 30^4 once
MIXED_DENOMINATORS = Graph(p=4, arcs={(1, 2): Fraction(1, 2), (2, 1): Fraction(2, 3),
                                      (2, 3): Fraction(-3, 5), (3, 1): Fraction(5, 3),
                                      (3, 4): Fraction(1, 5), (4, 2): 2, (4, 1): Fraction(-1, 2),
                                      (1, 3): 3}, loops={2: Fraction(3, 2), 4: -1})
# a float loop leaves the Fraction arcs unscaled; dyadic values keep the floats exact
FLOAT_LOOP = Graph(p=3, arcs={(1, 2): Fraction(1, 2), (2, 1): Fraction(-3, 4),
                              (2, 3): Fraction(1, 4), (3, 2): 2, (3, 1): Fraction(1, 2), (1, 3): 1},
                   loops={1: 0.5, 3: -1.25})
# a complex arc weight leaves the weights unscaled too
COMPLEX_ARC = Graph(p=3, arcs={(1, 2): 1j, (2, 1): 2, (2, 3): 1 - 1j, (3, 2): Fraction(1, 2),
                               (3, 1): 1, (1, 3): -1j}, loops={2: 3})
# the graph stores whole Fractions as int, so no weight is a Fraction
WHOLE_FRACTIONS = Graph(p=3, arcs={(1, 2): Fraction(4, 2), (2, 1): Fraction(-6, 3),
                                   (2, 3): Fraction(4, 2), (3, 1): 1, (1, 3): Fraction(9, 3)},
                        loops={1: Fraction(4, 2)})


@given(small_graphs())
@example(OPPOSED_TRIANGLE)
@example(LOOPED_SEVEN)
@example(MIXED_DENOMINATORS)
@example(FLOAT_LOOP)
@example(COMPLEX_ARC)
@example(WHOLE_FRACTIONS)
def test_matches_direct_permutation_sum(g):
    got = circuit_poly(g)
    assert got == brute_circuit_poly(g)
    # an integral coefficient is an int, also after the division by D^p
    assert all(c.denominator != 1 for c in got.terms().values() if type(c) is Fraction)


# Fraction arcs and a Fraction loop on an undirected 4-cycle with a chord:
# the loop drops out and the cycle sums of length >= 3 halve
FRACTION_COVERS = Graph(p=4, arcs={a: w for (i, j), w in {(1, 2): Fraction(1, 2), (2, 3): 3,
                                                          (3, 4): Fraction(-2, 3), (4, 1): 1,
                                                          (1, 3): Fraction(5, 4)}.items()
                                   for a in ((i, j), (j, i))},
                        loops={2: Fraction(3, 2)})


@given(small_graphs())
@example(Graph(p=0))
@example(FRACTION_COVERS)
@example(FLOAT_LOOP)
@example(COMPLEX_ARC)
def test_mode_in_the_recursion_matches_specialize(g):
    """Applying the mode and the vertex names to the factors of the cover
    recursion gives the specialized full polynomial, renamed."""
    full = circuit_poly(g)
    names = {v: xvar(2 * (g.p + 1 - v)) for v in range(1, g.p + 1)}
    rename = {xvar(v): Poly.variable(name) for v, name in names.items()}
    brute = brute_circuit_poly(g, sigma_b=-1)
    for mode in MODES.values():
        for m in (mode, mode.simple()):
            got = circuit_poly(g, DEFAULT_CAP, m)
            assert got == specialize(full, m, g)
            if m.sigma_b == -1:
                want = brute.substitute_many({wvar(i): m.w_value(i) for i in range(1, g.p + 1)})
                if m.collapse_x:
                    want = want.substitute_many({xvar(i): Poly.variable(X) for i in range(1, g.p + 1)})
                assert got == want
        keep = replace(mode, collapse_x=False)
        assert circuit_poly(g, DEFAULT_CAP, keep, names) == specialize(full, keep, g).substitute_many(rename)


@st.composite
def graphs_up_to_eight(draw):
    rng = random.Random(draw(st.integers(0, 10 ** 9)))
    return random_graph(rng, draw(st.integers(1, 8)), directed=draw(st.booleans()),
                        loops=draw(st.booleans()), density=draw(st.sampled_from([0.3, 0.6])))


@given(graphs_up_to_eight())
@example(LOOPED_SEVEN)
def test_stopped_table_matches_specialize(g):
    """In the matching modes the frontier table stops after the 2-cycles;
    the full table, specialized afterwards, agrees in every mode."""
    full = circuit_poly(g)
    for mode in MODES.values():
        for m in (mode, mode.simple()):
            assert circuit_poly(g, DEFAULT_CAP, m) == specialize(full, m, g)


RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=5)


@st.composite
def rational_graphs_up_to_six(draw):
    """Graphs of 1 to 6 vertices with rational arc and loop weights."""
    p = draw(st.integers(1, 6))
    vertex = st.integers(1, p)
    arcs = draw(st.dictionaries(st.tuples(vertex, vertex).filter(lambda a: a[0] != a[1]), RATIONALS,
                                max_size=p * (p - 1)))
    return Graph(p=p, arcs=arcs, loops=draw(st.dictionaries(vertex, RATIONALS, max_size=p)))


# undirected-covers halves its 3-cycle sum once; the characteristic modes sign its loops once
LOOPED_TRIANGLE = Graph(p=3, arcs={a: w for (i, j), w in {(1, 2): Fraction(1, 2), (2, 3): 2,
                                                          (1, 3): Fraction(-3, 4)}.items()
                                   for a in ((i, j), (j, i))},
                        loops={1: Fraction(2, 3), 2: -1, 3: Fraction(5, 2)})


@given(rational_graphs_up_to_six())
@example(Graph(p=5, arcs=random_graph(random.Random(5), 5, directed=True).arcs,  # every vertex looped
               loops={v: Fraction(v - 3, v + 1) or 2 for v in range(1, 6)}))
@example(random_graph(random.Random(6), 6, directed=True, density=0.6))  # no loop
@example(LOOPED_TRIANGLE)
def test_simple_circuit_poly_matches_the_full_expansion(g):
    """simple_circuit_poly sweeps in the mode's weights with the looped
    vertices kept apart, then specializes; in every mode it equals the full
    polynomial, expanded and then specialized, also as text."""
    full = circuit_poly(g, DEFAULT_CAP)
    for mode in MODES.values():
        got, want = simple_circuit_poly(g, mode), specialize(full, mode.simple(), g)
        assert got == want
        assert str(got) == str(want)


CHARACTERISTIC = (CHARACTERISTIC_STANDARD, CHARACTERISTIC_UNIFORM)


@st.composite
def weighted_graphs_up_to_eight(draw):
    """Graphs of 0 to 8 vertices, directed or not, with or without loops,
    their weights Fractions or, on request, only ints."""
    rng = random.Random(draw(st.integers(0, 10 ** 9)))
    g = random_graph(rng, draw(st.integers(0, 8)), directed=draw(st.booleans()),
                     loops=draw(st.booleans()), density=draw(st.sampled_from([0.3, 0.6])))
    if draw(st.booleans()):
        g = Graph(p=g.p, arcs={a: math.ceil(w) for a, w in g.arcs.items()},
                  loops={v: math.ceil(b) for v, b in g.loops.items()})
    return g


@given(weighted_graphs_up_to_eight())
@example(Graph(p=0))
@example(Graph(p=1, loops={1: Fraction(-3, 2)}))
@example(k1())
@example(LOOPED_SEVEN)
@example(MIXED_DENOMINATORS)
@example(COMPLEX_ARC)
def test_characteristic_modes_by_determinant_match_specialize(g):
    """The simple characteristic modes are computed as a determinant, not
    enumerated; they equal the specialized full polynomial, also as text."""
    full = circuit_poly(g)
    for mode in CHARACTERISTIC:
        got, want = circuit_poly(g, DEFAULT_CAP, mode.simple()), specialize(full, mode.simple(), g)
        assert got == want
        assert str(got) == str(want)


def _grid_with_rational_loops() -> Graph:
    g = reweighted(grid(10, 10), random.Random(100))
    return Graph(p=g.p, arcs=g.arcs, loops={v: Fraction(v % 7 - 3, v % 4 + 2) for v in range(1, g.p + 1)})


def _directed_rational_cycle(n: int) -> Graph:
    rationals = [Fraction(1, 2), Fraction(-3, 4), Fraction(5, 3), 2, Fraction(-1, 5)]
    return Graph(p=n, arcs={(v, v % n + 1): rationals[v % len(rationals)] for v in range(1, n + 1)},
                 loops={1: Fraction(1, 3)})


# past the enumeration's reach: det(tI - M) at a few points by Fraction elimination
DETERMINANT_GRAPHS = {"grid10x10": _grid_with_rational_loops(), "cycle100": _directed_rational_cycle(100)}


@pytest.mark.parametrize("mode", CHARACTERISTIC, ids=lambda m: m.name)
@pytest.mark.parametrize("name", sorted(DETERMINANT_GRAPHS))
def test_characteristic_modes_match_elimination_past_the_cap(name, mode):
    g = DETERMINANT_GRAPHS[name]
    got = circuit_poly(g, g.p, mode.simple())
    assert got.degree_in(X) == g.p
    for t in (0, 3, Fraction(-5, 2), Fraction(7, 3)):
        if mode is CHARACTERISTIC_STANDARD:
            want = char_det_at(g, t)
        else:
            want = (-1) ** g.p * char_det_at(g, t, arc_sign=-1)
        assert got.evaluate({X: t}) == want


def test_characteristic_modes_on_float_weights():
    """Float weights take the determinant route unscaled, as the float loops
    of factor.spectral_product_from_loops do; they agree with the
    enumeration to rounding."""
    rng = random.Random(6)
    g = random_graph(rng, 6, directed=True, density=0.6)
    g = Graph(p=g.p, arcs={a: float(w) + rng.random() / 3 for a, w in g.arcs.items()},
              loops={v: 2 ** 0.5 * v for v in range(1, 7)})
    full = circuit_poly(g)
    for mode in CHARACTERISTIC:
        got = circuit_poly(g, DEFAULT_CAP, mode.simple()).univariate_coeffs(X)
        want = specialize(full, mode.simple(), g).univariate_coeffs(X)
        assert len(got) == len(want) == 7
        assert all(abs(a - b) <= 1e-9 * max(1, abs(b)) for a, b in zip(got, want))


# (sigma_b, w1, w2) of the two matching modes, written out rather than read from them
MATCHING_SIGNS = [(MATCHING_MINUS, (-1, -1, -1)), (MATCHING_PLUS, (1, 1, 1))]
# past the enumeration cap, with Fraction loops and 2-cycles whose two arcs differ
STOPPED_GRAPHS = {"grid4x8": reweighted(grid(4, 8), random.Random(48)),
                  "ladder30": reweighted(ladder(15), random.Random(30))}


@given(small_graphs())
def test_lowest_vertex_recurrence_matches_permutation_sum(g):
    """The lowest-vertex recurrence agrees with the permutation sum in both
    matching modes, so it can stand in for it on graphs past the cap."""
    for _, (sigma_b, w1, w2) in MATCHING_SIGNS:
        want = brute_circuit_poly(g, sigma_b).substitute_many(
            {**{wvar(i): 0 for i in range(3, g.p + 1)}, wvar(1): w1, wvar(2): w2,
             **{xvar(i): Poly.variable(X) for i in range(1, g.p + 1)}})
        assert lowest_vertex_matching_poly(g, w1, w2, sigma_b) == want


@pytest.mark.parametrize("mode, signs", MATCHING_SIGNS, ids=[m.name for m, _ in MATCHING_SIGNS])
@pytest.mark.parametrize("name", sorted(STOPPED_GRAPHS))
def test_matching_modes_match_lowest_vertex_recurrence(name, mode, signs):
    g = STOPPED_GRAPHS[name]
    sigma_b, w1, w2 = signs
    assert circuit_poly(g, g.p, mode.simple()) == lowest_vertex_matching_poly(g, w1, w2, sigma_b)


@pytest.mark.parametrize("mode", [CHARACTERISTIC_STANDARD, MATCHING_MINUS], ids=lambda m: m.name)
@given(g=small_graphs())
def test_negative_loop_sign_by_substitution_matches_permutation_sum(mode, g):
    got = specialize(circuit_poly(g), replace(mode, collapse_x=False), g)
    want = brute_circuit_poly(g, sigma_b=-1).substitute_many(
        {wvar(i): mode.w_value(i) for i in range(1, g.p + 1)})
    assert got == want


@given(small_graphs())
def test_multilinear_in_every_vertex_variable(g):
    p = circuit_poly(g)
    for i in range(1, g.p + 1):
        assert p.degree_in(xvar(i)) <= 1


def test_matching_minus_single_edge():
    assert simple_circuit_poly(complete(2), MATCHING_MINUS) == parse_poly("x^2 - 1")


def test_permanental_triangle():
    # permanent of the x-diagonal triangle matrix, expanded by hand
    want = brute_permanent(x_matrix(complete(3)))
    want = want.substitute_many({xvar(i): Poly.variable(X) for i in (1, 2, 3)})
    assert want == parse_poly("x^3 + 3*x + 2")
    assert simple_circuit_poly(complete(3), PERMANENTAL) == want


def test_characteristic_standard_triangle():
    want = brute_determinant(x_matrix(complete(3), diag_sign=1, off_sign=-1))
    want = want.substitute_many({xvar(i): Poly.variable(X) for i in (1, 2, 3)})
    assert want == parse_poly("x^3 - 3*x - 2")
    assert simple_circuit_poly(complete(3), CHARACTERISTIC_STANDARD) == want


def test_characteristic_conventions_disagree_on_triangle():
    """The all-negative-weight specialization is not det(A - xI) on odd
    cycles: the two differ in the three-cycle term on a triangle."""
    literal = simple_circuit_poly(complete(3), CHARACTERISTIC_UNIFORM)
    # det(A - xI) expanded directly
    det = brute_determinant(
        [[Poly.const(complete(3).arc(i, j)) if i != j else -Poly.variable(xvar(i))
          for j in (1, 2, 3)] for i in (1, 2, 3)])
    det = det.substitute_many({xvar(i): Poly.variable(X) for i in (1, 2, 3)})
    assert literal == parse_poly("-x^3 + 3*x - 2")
    assert det == parse_poly("-x^3 + 3*x + 2")
    assert literal != det


EVEN_CYCLES = (complete(2), path(4), cycle(4), star(3))
ODD_OR_LOOPED = (complete(3), cycle(5), complete(4), Graph(p=2, arcs={(1, 2): 2, (2, 1): 3}, loops={1: -1}),
                 Graph(p=3, arcs={(1, 2): Fraction(1, 2), (2, 3): 1, (3, 1): -2, (2, 1): 3},
                       loops={2: Fraction(5, 3), 3: 1}))


def test_characteristic_uniform_is_the_signed_determinant_of_diag_b_minus_a():
    """characteristic-uniform is (-1)^p det(xI - (diag b - A)) on every graph,
    odd cycles and loops included; with only even cycles and no loops that
    is (-1)^p det(xI - A) too."""
    for g in EVEN_CYCLES:
        literal = simple_circuit_poly(g, CHARACTERISTIC_UNIFORM)
        det = brute_char_poly(g) * (-1) ** g.p
        assert literal == det
    for g in EVEN_CYCLES + ODD_OR_LOOPED:
        want = brute_char_poly(g, arc_sign=-1) * (-1) ** g.p
        assert simple_circuit_poly(g, CHARACTERISTIC_UNIFORM) == want
        assert circuit_poly(g, DEFAULT_CAP, CHARACTERISTIC_UNIFORM.simple()) == want


@given(small_graphs())
def test_characteristic_standard_equals_determinant(g):
    assert simple_circuit_poly(g, CHARACTERISTIC_STANDARD) == brute_char_poly(g)


@given(small_graphs())
def test_permanental_equals_inclusion_exclusion(g):
    assert simple_circuit_poly(g, PERMANENTAL) == permanental_poly_check(g)


@given(weighted_graphs_up_to_eight())
@example(Graph(p=0))
@example(LOOPED_SEVEN)
@example(MIXED_DENOMINATORS)
@example(WHOLE_FRACTIONS)
def test_permanental_route_equals_inclusion_exclusion(g):
    """The simple permanental mode is computed as a permanent, row by row
    over the columns taken, not through the full polynomial."""
    assert circuit_poly(g, DEFAULT_CAP, PERMANENTAL.simple()) == permanental_poly_check(g)


@st.composite
def graphs_with_sites(draw):
    g = draw(graphs_up_to_eight())
    return g, draw(st.sets(st.integers(1, g.p)))


@given(graphs_with_sites())
@example((MIXED_DENOMINATORS, {2, 3}))
def test_permanental_route_with_repeated_names(case):
    """Attach sites named y1 and every other vertex x, as a dendrimer tier
    core is named: the permanent keeps each name with its vertex, whatever
    the row order.  With sigma_b = -1 the loops enter the diagonal negated."""
    g, sites = case
    names = {v: yvar(1) if v in sites else X for v in range(1, g.p + 1)}
    rename = {xvar(v): Poly.variable(name) for v, name in names.items()}
    full = circuit_poly(g)
    for mode in (PERMANENTAL, replace(PERMANENTAL, sigma_b=-1)):
        want = specialize(full, mode, g).substitute_many(rename)
        assert circuit_poly(g, DEFAULT_CAP, mode, names) == want


@pytest.mark.parametrize("rungs", [20, 40])
def test_permanental_ladders_past_the_cap(rungs):
    """A ladder is bipartite, so per(A) is the square of its perfect-matching
    count, the Fibonacci number F(rungs + 1); the coefficient of x^(p - 2)
    sums the 2 x 2 principal permanents, one per edge."""
    g = ladder(rungs)
    coeffs = circuit_poly(g, g.p, PERMANENTAL.simple()).univariate_coeffs(X)
    fib = [0, 1]
    while len(fib) <= rungs + 1:
        fib.append(fib[-1] + fib[-2])
    assert len(coeffs) == g.p + 1 and coeffs[0] == 1 and coeffs[1] == 0
    assert coeffs[2] == len(g.arcs) // 2 == 3 * rungs - 2
    assert coeffs[-1] == fib[rungs + 1] ** 2


@given(small_graphs())
def test_matching_modes_keep_only_short_components(g):
    p = specialize(circuit_poly(g), MATCHING_PLUS, g)
    assert all(v.index <= 2 for v in p.variables() if v.kind == 3)


def test_brute_char_poly_examples():
    assert brute_char_poly(complete(2)) == parse_poly("x^2 - 1")
    assert brute_char_poly(star(3)) == parse_poly("x^4 - 3*x^2")
    assert char_det_at(complete(3), Fraction(1, 2), arc_sign=-1) == Fraction(5, 8)


def test_permanental_check_examples():
    assert permanental_poly_check(complete(2)) == parse_poly("x^2 + 1")
    assert permanental_poly_check(complete(3)) == parse_poly("x^3 + 3*x + 2")
    assert permanental_poly_check(k1()) == Poly.variable(X)


def test_cycle_index_small():
    w1, w2 = Poly.variable(wvar(1)), Poly.variable(wvar(2))
    assert cycle_index_sym(1) == w1
    assert cycle_index_sym(2) == Fraction(1, 2) * (w1 ** 2 + w2)
    assert cycle_index_sym(3) == parse_poly("1/6*w1^3 + 1/2*w1*w2 + 1/3*w3")


@pytest.mark.parametrize("p", range(1, 7))
def test_complete_graph_vs_cycle_index(p):
    full = circuit_poly(complete(p), cap=p)
    at_one = full.substitute_many({xvar(i): 1 for i in range(1, p + 1)})
    factorial = 1
    for k in range(2, p + 1):
        factorial *= k
    assert at_one == factorial * cycle_index_sym(p)


def test_halved_cycle_weights_mismatch_on_triangle():
    """The undirected-cover polynomial of a triangle keeps a single w3 term,
    which is not p! times the cycle index (that has weight 2)."""
    covers = specialize(circuit_poly(complete(3)), UNDIRECTED_COVERS, complete(3))
    assert covers == parse_poly("w1^3 + 3*w1*w2 + w3")
    assert covers != 6 * cycle_index_sym(3)


@pytest.mark.parametrize("g", [complete(3), cycle(4), complete(4)],
                         ids=["triangle", "square", "k4"])
def test_halved_cycle_weights_count_undirected_covers(g):
    assert specialize(circuit_poly(g), UNDIRECTED_COVERS, g) == undirected_cover_poly(g)


def test_undirected_covers_discard_loops():
    g = Graph(p=2, arcs={(1, 2): 1, (2, 1): 1}, loops={1: 5})
    assert specialize(circuit_poly(g), UNDIRECTED_COVERS, g) == undirected_cover_poly(g)


def test_directed_three_cycle():
    g = Graph(p=3, arcs={(1, 2): 1, (2, 3): 1, (3, 1): 1})
    assert circuit_poly(g) == parse_poly("x1*x2*x3*w1^3 + w3")


def test_signed_loops_enter_via_substitution():
    g = Graph(p=1, loops={1: 3})
    assert simple_circuit_poly(g, CHARACTERISTIC_STANDARD) == parse_poly("x - 3")
    assert simple_circuit_poly(g, PERMANENTAL) == parse_poly("x + 3")


def test_mode_lookup():
    assert mode_by_name("characteristic-standard") is CHARACTERISTIC_STANDARD
    with pytest.raises(ValueError, match="unknown weight mode"):
        mode_by_name("nope")


def test_float_weights_flow_through():
    g = Graph(p=1, loops={1: -1.5})
    p = simple_circuit_poly(g, PERMANENTAL)
    assert abs(p.evaluate({X: 1.5})) < 1e-12


def test_memo_is_freed_when_the_call_returns():
    """Nothing of the cover sweep outlives a call, even with the garbage
    collector off: no reached set is left in a reference cycle."""
    import gc
    import tracemalloc

    g = complete(7)
    circuit_poly(g)  # fill the module's caches first
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        circuit_poly(g)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        gc.enable()
    assert held < 1024  # one K7 call peaks at about 50 kB
