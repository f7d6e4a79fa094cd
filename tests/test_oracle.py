import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from _brute import (brute_circuit_poly, brute_determinant, brute_permanent,
                    cycle_index_sym, grid, ladder, lowest_vertex_matching_poly,
                    permanental_poly_check, random_graph, reweighted,
                    undirected_cover_poly, x_matrix)
from rootedpoly.graph import Graph, complete, cycle, k1, path, star
from rootedpoly.oracle import (CHARACTERISTIC_STANDARD, CHARACTERISTIC_UNIFORM, DEFAULT_CAP,
                               MATCHING_MINUS, MATCHING_PLUS, MODES, PERMANENTAL,
                               UNDIRECTED_COVERS, OracleCapExceeded, char_poly_det,
                               circuit_poly, mode_by_name, simple_circuit_poly,
                               specialize)
from rootedpoly.poly import Poly, X, parse_poly, wvar, xvar


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


def test_too_deep_cover_recursion_is_a_cap_error():
    """The cover recursion goes one level per covered vertex or cycle; past
    the interpreter's depth it raises the cap error, not RecursionError."""
    with pytest.raises(OracleCapExceeded, match="1100 vertices"):
        circuit_poly(Graph(p=1100), cap=2000, mode=MATCHING_MINUS.simple())


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
    """The all-negative-weight specialization is not the determinant for odd
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


def test_characteristic_uniform_matches_determinant_on_even_cycles():
    for g in (complete(2), path(4), cycle(4), star(3)):
        literal = simple_circuit_poly(g, CHARACTERISTIC_UNIFORM)
        det = char_poly_det(g) * (-1) ** g.p
        assert literal == det


@given(small_graphs())
def test_characteristic_standard_equals_determinant(g):
    assert simple_circuit_poly(g, CHARACTERISTIC_STANDARD) == char_poly_det(g)


@given(small_graphs())
def test_permanental_equals_inclusion_exclusion(g):
    assert simple_circuit_poly(g, PERMANENTAL) == permanental_poly_check(g)


@given(small_graphs())
def test_matching_modes_keep_only_short_components(g):
    p = specialize(circuit_poly(g), MATCHING_PLUS, g)
    assert all(v.index <= 2 for v in p.variables() if v.kind == 3)


def test_char_poly_det_examples():
    assert char_poly_det(complete(2)) == parse_poly("x^2 - 1")
    assert char_poly_det(star(3)) == parse_poly("x^4 - 3*x^2")


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
    """Nothing of the recursion outlives a call, even with the garbage
    collector off: the memo is not left in a reference cycle."""
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
    assert held < 1024  # the K7 memo alone is about 100 kB
