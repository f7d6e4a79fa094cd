import math
from dataclasses import replace
from fractions import Fraction

import pytest

from _brute import six_vertex_tree
from rootedpoly.factor import (BipartiteExpansion, attachment_polys,
                               bipartite_bivariate, bipartite_delta, coalescence_poly, core_parts,
                               dendrimer_poly, monodendron_polys, mu_squares,
                               one_sided_product_poly,
                               reciprocal_check, restricted_product_from_edge_join,
                               restricted_product_poly, restricted_spectral_form,
                               restricted_substitution_poly, rooted_product_poly,
                               simple_rooted_product_poly, spectral_product_form,
                               spectral_product_from_loops, zero_divisibility_report)
from rootedpoly.graph import (DendrimerSpec, Graph, attach_root_loop, bipartition, complete,
                              cycle, delete_root, dendrimer, k1, path,
                              restricted_rooted_product, rooted_product, star,
                              strip_all_loops, strip_root_loops)
from rootedpoly.oracle import (CHARACTERISTIC_STANDARD, CHARACTERISTIC_UNIFORM, GENERIC,
                               MATCHING_MINUS, MODES, PERMANENTAL, UNDIRECTED_COVERS, WeightMode,
                               char_poly_det, circuit_poly, simple_circuit_poly, specialize)
from rootedpoly.factored import divides, multiplicity_at
from rootedpoly.poly import Poly, X, parse_poly, wvar, xvar, yvar
from rootedpoly.spectra import roots
from rootedpoly.verify import bipartite_cores, corpus_attachments

TWIG = complete(2).with_root(1)
W1 = Poly.variable(wvar(1))
CHAR = CHARACTERISTIC_STANDARD
# a one-vertex unit other than +-1: dividing by it and multiplying by it differ
UNIT_TWO = WeightMode("unit-two", sigma_b=-1, w1=2, w2=3, w_rest=-1)


def rename(p, mapping):
    return p.substitute_many({xvar(a): Poly.variable(xvar(b)) for a, b in mapping.items()})


def tri_pairs(triples):
    """(P(H~), P(H - r)) of each (P(H), P(H - r), P(H~)) triple: the pairs a
    core polynomial carrying the coalescence-node loops takes."""
    return [(ptri, pl) for _, pl, ptri in triples]


def hat_pairs(triples):
    """(P(H), P(H - r)) of each triple: the pairs a loop-free core takes."""
    return [(ph, pl) for ph, pl, _ in triples]


def test_coalescence_with_bare_vertex_is_identity():
    bg = circuit_poly(complete(2).with_root(2))
    got = coalescence_poly(bg, Poly.one(),
                           Poly.variable(xvar(2)) * W1, xvar(2), w1_unit=W1)
    assert got == bg


def test_coalescence_two_twigs_generic():
    bg = circuit_poly(complete(2).with_root(2))
    h = TWIG
    ph_tri = rename(circuit_poly(strip_root_loops(h)), {1: 2, 2: 3})
    pl = rename(circuit_poly(delete_root(h)), {1: 3})
    got = coalescence_poly(bg, pl, ph_tri, xvar(2), w1_unit=W1)
    want = circuit_poly(path(3))
    assert got == want


def test_coalescence_rejects_nonlinear_core():
    bad = Poly.variable(xvar(1)) ** 2
    with pytest.raises(ValueError, match="not multilinear"):
        coalescence_poly(bad, Poly.one(), Poly.one(), xvar(1))


def test_rooted_product_poly_flavors_agree_with_loops():
    core = Graph(p=3, arcs=complete(3).arcs, loops={1: 1})
    h = Graph(p=2, arcs=complete(2).arcs, loops={1: Fraction(1, 2)}, root=1)
    product, maps = rooted_product(core, [h] * 3)
    want = circuit_poly(product, cap=9)

    triples = []
    for k in range(3):
        hhat = Graph(p=2, arcs=h.arcs, loops={1: core.loop(k + 1) + h.loop(1)}, root=1)
        ph = rename(circuit_poly(hhat), maps[k])
        ptri = rename(circuit_poly(strip_root_loops(h)), maps[k])
        pl = rename(circuit_poly(delete_root(h)), {1: maps[k][2]})
        triples.append((ph, pl, ptri))
    core_hat = Graph(p=3, arcs=core.arcs,
                     loops={v: core.loop(v) + h.loop(1) for v in (1, 2, 3)})
    got_a = rooted_product_poly(circuit_poly(core_hat), tri_pairs(triples), W1)
    got_b = rooted_product_poly(circuit_poly(strip_all_loops(core)), hat_pairs(triples), W1)
    assert got_a == want
    assert got_b == want


def test_rooted_product_poly_arity_check():
    core = circuit_poly(complete(3))
    with pytest.raises(ValueError, match="attachments"):
        rooted_product_poly(core, [(Poly.one(), Poly.one())] * 2)


def test_simple_product_with_bare_attachment_returns_core():
    bg = simple_circuit_poly(complete(3), CHAR)
    x = Poly.variable(X)
    assert simple_rooted_product_poly(bg, x, Poly.one(), 3) == bg


def test_simple_product_twigs_on_edge():
    bg = simple_circuit_poly(complete(2), CHAR)
    tri = simple_circuit_poly(TWIG, CHAR)
    pl = simple_circuit_poly(delete_root(TWIG), CHAR)
    assert simple_rooted_product_poly(bg, tri, pl, 2) == parse_poly("x^4 - 3*x^2 + 1")


def test_simple_product_triangle_thistle():
    bg = simple_circuit_poly(complete(3), CHAR)
    tri = simple_circuit_poly(TWIG, CHAR)
    pl = simple_circuit_poly(delete_root(TWIG), CHAR)
    product, _ = rooted_product(complete(3), [TWIG] * 3)
    want = simple_circuit_poly(product, CHAR)
    assert simple_rooted_product_poly(bg, tri, pl, 3) == want


def test_simple_product_rejects_nonmonic():
    bg = 2 * Poly.variable(X) ** 2
    with pytest.raises(ValueError, match="gamma0"):
        simple_rooted_product_poly(bg, Poly.variable(X), Poly.one(), 2)


def test_spectral_product_form_edge_core():
    bg = simple_circuit_poly(complete(2), CHAR)
    tri = simple_circuit_poly(TWIG, CHAR)
    pl = simple_circuit_poly(delete_root(TWIG), CHAR)
    exact = simple_rooted_product_poly(bg, tri, pl, 2)
    got = spectral_product_form(roots(bg), tri, pl)
    dev = max(abs(complex(a) - complex(b)) for a, b in
              zip(exact.univariate_coeffs(X), got.univariate_coeffs(X)))
    assert dev < 1e-9


def test_spectral_product_form_zero_roots_give_power():
    empty_core = simple_circuit_poly(Graph(p=3), CHAR)  # x**3
    tri = simple_circuit_poly(TWIG, CHAR)
    pl = simple_circuit_poly(delete_root(TWIG), CHAR)
    got = spectral_product_form(roots(empty_core), tri, pl)
    want = tri ** 3
    dev = max(abs(complex(a) - complex(b)) for a, b in
              zip(want.univariate_coeffs(X), got.univariate_coeffs(X)))
    assert dev < 1e-12


def test_zero_core_roots_divide_exact_product():
    """A double zero root of the star forces the square of the attachment
    polynomial into the exact product polynomial."""
    bg = simple_circuit_poly(star(3), CHAR)
    tri = simple_circuit_poly(TWIG, CHAR)
    pl = simple_circuit_poly(delete_root(TWIG), CHAR)
    exact = simple_rooted_product_poly(bg, tri, pl, 4)
    ok, _ = divides(tri ** 2, exact)
    assert ok


def test_spectral_product_from_loops_matches_exact():
    core = complete(2)
    bg = simple_circuit_poly(core, CHAR)
    tri = simple_circuit_poly(TWIG, CHAR)
    pl = simple_circuit_poly(delete_root(TWIG), CHAR)
    exact = simple_rooted_product_poly(bg, tri, pl, 2)
    got = spectral_product_from_loops(roots(bg), TWIG, CHAR)
    dev = max(abs(complex(a) - complex(b)) for a, b in
              zip(exact.univariate_coeffs(X), got.univariate_coeffs(X)))
    assert dev < 1e-9


def test_loop_decorated_single_vertex():
    g = Graph(p=1, loops={1: -1.0}, root=1)
    got = simple_circuit_poly(g, PERMANENTAL)
    tri = simple_circuit_poly(k1(), PERMANENTAL)
    pl = Poly.one()
    want = tri - 1 * pl
    assert max(abs(complex(a) - complex(b)) for a, b in
               zip(want.univariate_coeffs(X), got.univariate_coeffs(X))) < 1e-12


def test_bipartite_delta_examples():
    assert bipartite_delta(path(4), CHAR).constants() == [1, -3, 1]
    assert bipartite_delta(star(3), CHAR).constants() == [1, -3]
    assert bipartite_delta(complete(2), CHAR).constants() == [1, -1]


def test_bipartite_delta_leading_one_in_every_mode():
    for mode in (GENERIC, CHAR, PERMANENTAL):
        delta = bipartite_delta(cycle(4), mode)
        assert delta.delta[0] == Poly.one()


def test_bipartite_delta_rejects_loops():
    with pytest.raises(ValueError, match="loopless"):
        bipartite_delta(Graph(p=2, arcs=complete(2).arcs, loops={1: 1}), CHAR)


def test_restricted_product_regenerates_core():
    t = six_vertex_tree()
    delta = bipartite_delta(t, CHAR)
    x = Poly.variable(X)
    got = restricted_product_poly(delta, x, Poly.one(), x, Poly.one())
    assert got == simple_circuit_poly(t, CHAR)


def test_restricted_product_edge_core_twigs():
    t = complete(2).with_parts((1, 2))
    delta = bipartite_delta(t, CHAR)
    ph = simple_circuit_poly(TWIG, CHAR)
    pl = simple_circuit_poly(delete_root(TWIG), CHAR)
    assert restricted_product_poly(delta, ph, pl, ph, pl) == parse_poly("x^4 - 3*x^2 + 1")


@pytest.mark.parametrize("mode", [CHAR, UNIT_TWO], ids=lambda m: m.name)
def test_restricted_routes_divide_out_the_unit(mode):
    """Expansion and substitution agree with the built restricted product on
    attachments with root loops, under a unit of 1 and of 2."""
    t = six_vertex_tree()
    h1, h2 = k1(loop=3), attach_root_loop(TWIG, Fraction(1, 2))
    product, _ = restricted_rooted_product(t, h1, h2)
    want = simple_circuit_poly(product, mode, cap=9)
    ph1, pl1, _ = attachment_polys(h1, mode)
    ph2, pl2, _ = attachment_polys(h2, mode)
    assert restricted_product_poly(bipartite_delta(t, mode), ph1, pl1, ph2, pl2) == want
    assert restricted_substitution_poly(bipartite_bivariate(t, mode), ph1, pl1, ph2, pl2,
                                        mode.w1_unit) == want


@pytest.mark.parametrize("mode", [CHARACTERISTIC_UNIFORM, UNIT_TWO], ids=lambda m: m.name)
def test_uniform_product_routes_under_the_unit(mode):
    """On a triangle core, whose roots are not symmetric and whose unit**3 is
    not 1, the expansion and both root-product routes give the built product."""
    bg = simple_circuit_poly(complete(3), mode)
    tri = simple_circuit_poly(TWIG, mode)
    pl = simple_circuit_poly(delete_root(TWIG), mode)
    got = simple_rooted_product_poly(bg, tri, pl, 3, w1_unit=mode.w1)
    product, _ = rooted_product(complete(3), [TWIG] * 3)
    assert got == simple_circuit_poly(product, mode)
    for numeric in (spectral_product_form(roots(bg), tri, pl, w1_unit=mode.w1),
                    spectral_product_from_loops(roots(bg), TWIG, mode)):
        dev = max(abs(complex(a) - complex(b)) for a, b in
                  zip(got.univariate_coeffs(X), numeric.univariate_coeffs(X)))
        assert dev < 1e-9


def test_spectral_product_form_rejects_a_symbolic_unit():
    bg = simple_circuit_poly(complete(2), CHAR)
    with pytest.raises(ValueError, match="numeric unit"):
        spectral_product_form(roots(bg), Poly.variable(X), Poly.one(), w1_unit=W1)


def test_restricted_three_routes_on_flagship_tree():
    t = six_vertex_tree()
    product, _ = restricted_rooted_product(t, k1(), TWIG)
    want = simple_circuit_poly(product, CHAR, cap=9)
    assert want == parse_poly("x^9 - 8*x^7 + 18*x^5 - 12*x^3")
    ph1 = simple_circuit_poly(k1(), CHAR)
    pl1 = Poly.one()
    ph2 = simple_circuit_poly(TWIG, CHAR)
    pl2 = simple_circuit_poly(delete_root(TWIG), CHAR)
    delta = bipartite_delta(t, CHAR)
    assert restricted_product_poly(delta, ph1, pl1, ph2, pl2) == want
    bivar = bipartite_bivariate(t, CHAR)
    assert restricted_substitution_poly(bivar, ph1, pl1, ph2, pl2) == want


def test_one_sided_product_with_bare_loops():
    t = star(3).with_parts(bipartition(star(3)))
    b = Fraction(3, 2)
    core_loopy = Graph(p=4, arcs=t.arcs, loops={1: b}, parts=t.parts)  # center is part 2
    product, _ = restricted_rooted_product(core_loopy, TWIG, k1())
    want = simple_circuit_poly(product, CHAR)
    delta = bipartite_delta(t, CHAR)
    ph = simple_circuit_poly(TWIG, CHAR)
    pl = simple_circuit_poly(delete_root(TWIG), CHAR)
    got = one_sided_product_poly(delta, ph, pl, b, CHAR, larger_side=True)
    assert got == want


def test_mu_squares_path4():
    mu = mu_squares(bipartite_delta(path(4), CHAR))
    assert mu.q == parse_poly("x^2 - 3*x + 1")
    values = sorted(v.real for v in mu.root_set.expanded())
    assert abs(values[0] - (3 - math.sqrt(5)) / 2) < 1e-12
    assert abs(values[1] - (3 + math.sqrt(5)) / 2) < 1e-12


def test_mu_squares_star_and_edge():
    mu = mu_squares(bipartite_delta(star(3), CHAR))
    assert [round(v.real, 9) for v in mu.root_set.expanded()] == [3.0]
    mu = mu_squares(bipartite_delta(complete(2), CHAR))
    assert [round(v.real, 9) for v in mu.root_set.expanded()] == [1.0]


def test_restricted_spectral_form_balanced_zero_roots():
    # two isolated vertices: the only squared root is zero
    t = Graph(p=2, parts=(1, 2))
    delta = bipartite_delta(t, CHAR)
    mu = mu_squares(delta)
    ph = simple_circuit_poly(TWIG, CHAR)
    pl = simple_circuit_poly(delete_root(TWIG), CHAR)
    got = restricted_spectral_form(mu.root_set, ph, pl, ph, pl, 1, 1)
    want = ph * ph
    dev = max(abs(complex(a) - complex(b)) for a, b in
              zip(want.univariate_coeffs(X), got.univariate_coeffs(X)))
    assert dev < 1e-12


def test_restricted_spectral_and_edge_join_on_path():
    t = path(4).with_parts(bipartition(path(4)))
    delta = bipartite_delta(t, CHAR)
    mu = mu_squares(delta)
    ph = simple_circuit_poly(TWIG, CHAR)
    pl = simple_circuit_poly(delete_root(TWIG), CHAR)
    exact = restricted_product_poly(delta, ph, pl, ph, pl)
    ce = [complex(c) for c in exact.univariate_coeffs(X)]
    for numeric in (restricted_spectral_form(mu.root_set, ph, pl, ph, pl, 2, 2),
                    restricted_product_from_edge_join(mu.root_set, TWIG, TWIG, CHAR, 2, 2)):
        cn = [complex(c) for c in numeric.univariate_coeffs(X)]
        assert max(abs(a - b) for a, b in zip(ce, cn)) < 1e-9


@pytest.mark.parametrize("mode", sorted(MODES))
def test_attachment_polys_match_enumeration(mode):
    """P(H) comes from P(H~) and P(H - r) by the root-loop shift; it must equal
    the enumerated polynomial in every mode, with and without vmap."""
    mode = MODES[mode]
    directed = Graph(p=3, arcs={(1, 2): Fraction(1, 2), (2, 3): -2, (3, 1): 3, (2, 1): 1},
                     loops={2: Fraction(2, 3)}, root=1)
    for h in (TWIG, path(3).with_root(2), k1(loop=2), directed):
        for b in (0, 1, Fraction(-2, 3)):
            hb = attach_root_loop(h, b)
            ph, pl, ptri = attachment_polys(hb, mode)
            assert ph == simple_circuit_poly(hb, mode)
            assert pl == simple_circuit_poly(delete_root(hb), mode)
            assert ptri == simple_circuit_poly(strip_root_loops(hb), mode)
            keep = replace(mode, collapse_x=False)
            ph, _, ptri = attachment_polys(hb, mode, vmap={v: v for v in range(1, hb.p + 1)})
            assert ph == specialize(circuit_poly(hb), keep, hb)
            assert ptri == specialize(circuit_poly(strip_root_loops(hb)), keep, strip_root_loops(hb))


@pytest.mark.parametrize("b", [-1, 0, 2])
def test_attachment_polys_names_match_renaming(b):
    """With vmap, naming the vertices inside the recursion gives the
    specialized polynomials renamed into the product's numbering."""
    for _, h in corpus_attachments():
        hb = attach_root_loop(h, b)
        vmap = rooted_product(complete(2), [hb, hb])[1][1]
        others = [v for v in range(1, hb.p + 1) if v != hb.root]
        ph, pl, ptri = attachment_polys(hb, GENERIC, 9, vmap)
        assert ph == rename(specialize(circuit_poly(hb), GENERIC, hb), vmap)
        tri, rest = strip_root_loops(hb), delete_root(hb)
        assert ptri == rename(specialize(circuit_poly(tri), GENERIC, tri), vmap)
        assert pl == rename(specialize(circuit_poly(rest), GENERIC, rest),
                            {k: vmap[v] for k, v in enumerate(others, start=1)})


def divide_w1_power(p: Poly, k: int) -> Poly:
    """p / w1**k term by term; a term without w1**k raises ValueError."""
    out = {}
    for mono, c in p.terms().items():
        exps = dict(mono)
        if exps.get(wvar(1), 0) < k:
            raise ValueError(f"a term of {p} is not divisible by w1^{k}")
        exps[wvar(1)] = exps.get(wvar(1), 0) - k
        out[tuple((v, e) for v, e in exps.items() if e)] = c
    return Poly(out)


@pytest.mark.parametrize("mode", sorted(MODES))
def test_bipartite_polys_match_the_specialize_route(mode):
    """The bivariate polynomial and the expansion coefficients equal those of
    the generic polynomial with part variables substituted, then specialized."""
    mode = MODES[mode]
    keep = replace(mode, collapse_x=False)
    with pytest.raises(ValueError, match="not divisible"):
        divide_w1_power(W1 + W1 ** 2, 2)
    for _, core in bipartite_cores():
        parts, p1, p2 = core_parts(core)
        generic = circuit_poly(core).substitute_many(
            {xvar(i): Poly.variable(yvar(part)) for i, part in enumerate(parts, start=1)})
        assert bipartite_bivariate(core, mode) == specialize(generic, keep, core)
        delta = bipartite_delta(core, mode)
        for k, d in enumerate(delta.delta):
            bucket = Poly({tuple(ve for ve in mono if ve[0] not in (yvar(1), yvar(2))): c
                           for mono, c in generic.terms().items()
                           if dict(mono).get(yvar(1), 0) == p1 - k})
            assert d == specialize(divide_w1_power(bucket, core.p - 2 * k), keep, core)


def test_reciprocal_flagship_and_cycle():
    assert reciprocal_check(six_vertex_tree(), k1(), TWIG, CHAR)
    assert reciprocal_check(six_vertex_tree(), TWIG, TWIG, CHAR)
    c4 = cycle(4).with_parts(bipartition(cycle(4)))
    assert reciprocal_check(c4, TWIG, k1(), CHAR)


def test_reciprocal_requires_equal_parts():
    with pytest.raises(ValueError, match="parts unequal"):
        reciprocal_check(star(3).with_parts(bipartition(star(3))), k1(), TWIG, CHAR)


def test_zero_divisibility_star_with_twigs():
    t = star(3).with_parts(bipartition(star(3)))
    t_poly = simple_circuit_poly(t, CHAR)  # double zero root, parts (3, 1)
    delta = bipartite_delta(t, CHAR)
    ph1 = simple_circuit_poly(TWIG, CHAR)
    pl1 = simple_circuit_poly(delete_root(TWIG), CHAR)
    ph2 = simple_circuit_poly(k1(), CHAR)
    product = restricted_product_poly(delta, ph1, pl1, ph2, Poly.one())
    report = zero_divisibility_report(t_poly, ph1, ph2, product, 3, 1)
    assert report.zero_multiplicity == 2
    assert (report.exponent_larger, report.exponent_smaller) == (2, 0)
    assert report.divides
    assert report.quotient * ph1 ** 2 == product


def test_zero_divisibility_balanced_cycle():
    """On a balanced core every vanishing squared root contributes one factor
    of each attachment polynomial."""
    c4 = cycle(4).with_parts(bipartition(cycle(4)))
    t_poly = simple_circuit_poly(c4, CHAR)
    delta = bipartite_delta(c4, CHAR)
    ph1 = simple_circuit_poly(TWIG, CHAR)
    pl1 = simple_circuit_poly(delete_root(TWIG), CHAR)
    ph2 = simple_circuit_poly(path(3).with_root(1), CHAR)
    pl2 = simple_circuit_poly(delete_root(path(3).with_root(1)), CHAR)
    product = restricted_product_poly(delta, ph1, pl1, ph2, pl2)
    report = zero_divisibility_report(t_poly, ph1, ph2, product, 2, 2)
    assert report.zero_multiplicity == 2
    assert (report.exponent_larger, report.exponent_smaller) == (1, 1)
    assert report.divides


def test_zero_divisibility_trivial_exponent():
    t_poly = simple_circuit_poly(path(6), CHAR)
    report = zero_divisibility_report(t_poly, Poly.variable(X), Poly.variable(X),
                                      t_poly, 3, 3)
    assert report.zero_multiplicity == 0
    assert report.divides and report.quotient == t_poly


def test_common_roots_are_inherited_by_the_product():
    """A root shared by an attachment polynomial and a root-deleted polynomial
    survives into the restricted product with at least that multiplicity."""
    t = complete(2).with_parts((1, 2))
    h = path(3).with_root(2)
    ph = simple_circuit_poly(h, CHAR)
    pl = simple_circuit_poly(delete_root(h), CHAR)
    shared = min(multiplicity_at(ph, 0), multiplicity_at(pl, 0))
    assert shared == 1
    delta = bipartite_delta(t, CHAR)
    product = restricted_product_poly(delta, ph, pl, ph, pl)
    assert multiplicity_at(product, 0) >= shared
    built, _ = restricted_rooted_product(t, h, h)
    assert product == simple_circuit_poly(built, CHAR)


def test_monodendron_polys_match_explicit_graphs():
    from rootedpoly.graph import monodendron
    unit, sites = path(3).with_root(2), (1, 3)
    for tiers in (0, 1, 2):
        p_poly, q_poly = monodendron_polys(unit, sites, tiers, CHAR)
        m = monodendron(unit, sites, tiers)
        assert p_poly == simple_circuit_poly(m.graph, CHAR)
        if m.graph.p > 1:
            assert q_poly == simple_circuit_poly(delete_root(m.graph), CHAR)


def test_dendrimer_poly_zero_generations_is_core():
    spec = DendrimerSpec(core=complete(3), unit=TWIG, attach_sites=(2,), generations=0)
    assert dendrimer_poly(spec, CHAR) == simple_circuit_poly(complete(3), CHAR)


def test_dendrimer_poly_matches_constructed_graph():
    spec = DendrimerSpec(core=complete(2), unit=path(3).with_root(2),
                         attach_sites=(1, 3), generations=1)
    built = dendrimer(spec)
    assert dendrimer_poly(spec, CHAR) == char_poly_det(built)


def test_dendrimer_poly_with_loops_everywhere():
    core = Graph(p=2, arcs=complete(2).arcs, loops={1: 1, 2: -2})
    unit = Graph(p=2, arcs=complete(2).arcs, loops={1: Fraction(1, 2), 2: 3}, root=1)
    spec = DendrimerSpec(core=core, unit=unit, attach_sites=(2,), generations=2)
    built = dendrimer(spec)
    assert dendrimer_poly(spec, CHAR) == char_poly_det(built)
    assert dendrimer_poly(spec, PERMANENTAL) == simple_circuit_poly(built, PERMANENTAL, cap=10)


@pytest.mark.parametrize("generations", [0, 2])
def test_dendrimer_poly_rejects_a_mode_without_vertex_variables(generations):
    # the attach sites are named by a vertex variable, which x_to_one removes
    spec = DendrimerSpec(core=complete(2), unit=path(3).with_root(2),
                         attach_sites=(1, 3), generations=generations)
    with pytest.raises(ValueError, match="removes vertex variables"):
        dendrimer_poly(spec, UNDIRECTED_COVERS)


def test_simple_product_under_negative_unit_weight():
    """The matching specialization with all weights -1 has a one-vertex unit
    of -1; the expansion route must normalize it away."""
    from rootedpoly.oracle import MATCHING_MINUS
    bg = simple_circuit_poly(complete(2), MATCHING_MINUS)
    tri = simple_circuit_poly(TWIG, MATCHING_MINUS)
    pl = simple_circuit_poly(delete_root(TWIG), MATCHING_MINUS)
    got = simple_rooted_product_poly(bg, tri, pl, 2, w1_unit=-1)
    product, _ = rooted_product(complete(2), [TWIG, TWIG])
    assert got == simple_circuit_poly(product, MATCHING_MINUS)
    numeric = spectral_product_form(roots(bg), tri, pl, w1_unit=-1)
    dev = max(abs(complex(a) - complex(b)) for a, b in
              zip(got.univariate_coeffs(X), numeric.univariate_coeffs(X)))
    assert dev < 1e-9


def test_rooted_product_poly_on_directed_weighted_core():
    core = Graph(p=3, arcs={(1, 2): Fraction(1, 2), (2, 3): 2, (3, 1): -1,
                            (2, 1): 3}, loops={2: Fraction(-1, 3)})
    h = path(3).with_root(2)
    product, maps = rooted_product(core, [h] * 3)
    want = circuit_poly(product, cap=9)
    triples = []
    for k in range(3):
        ren = {xvar(v): Poly.variable(xvar(g)) for v, g in maps[k].items()}
        hhat = Graph(p=3, arcs=h.arcs, loops={2: core.loop(k + 1)}, root=2)
        ph = circuit_poly(hhat).substitute_many(ren)
        ptri = circuit_poly(h).substitute_many(ren)
        pl = circuit_poly(delete_root(h)).substitute_many(
            {xvar(1): Poly.variable(xvar(maps[k][1])), xvar(2): Poly.variable(xvar(maps[k][3]))})
        triples.append((ph, pl, ptri))
    got = rooted_product_poly(circuit_poly(strip_all_loops(core)), hat_pairs(triples), W1)
    assert got == want


def test_rooted_product_identities_on_random_directed_cores():
    """Both product flavors agree with the oracle on random directed,
    rationally weighted, loop-carrying cores and attachments at generic w."""
    import random

    from _brute import random_graph

    rng = random.Random(7)
    checked = 0
    while checked < 25:
        pc = rng.randint(1, 3)
        core = random_graph(rng, pc, directed=True, loops=True, density=0.7)
        gamma = []
        for _ in range(pc):
            ph = rng.randint(1, 3)
            h = random_graph(rng, ph, directed=rng.random() < 0.5, loops=True, density=0.7)
            gamma.append(h.with_root(rng.randint(1, ph)))
        product, maps = rooted_product(core, gamma)
        if product.p > 8:
            continue
        want = circuit_poly(product, cap=9)
        triples = [attachment_polys(attach_root_loop(h, core.loop(k + 1) + h.loop(h.root)),
                                    GENERIC, 9, maps[k]) for k, h in enumerate(gamma)]
        core_hat = Graph(p=pc, arcs=core.arcs,
                         loops={v: core.loop(v) + gamma[v - 1].loop(gamma[v - 1].root)
                                for v in range(1, pc + 1)})
        got_a = rooted_product_poly(circuit_poly(core_hat), tri_pairs(triples), W1)
        got_b = rooted_product_poly(circuit_poly(strip_all_loops(core)), hat_pairs(triples), W1)
        assert got_a == want and got_b == want
        checked += 1


@pytest.mark.parametrize("mode", [GENERIC, CHARACTERISTIC_STANDARD, MATCHING_MINUS, UNIT_TWO],
                         ids=lambda m: m.name)
def test_unit_divided_out_of_the_core(mode):
    """The unit comes off the core polynomial before the substitution, for a
    symbolic w1, w1 = 1, w1 = -1 and w1 = 2, on a core and attachments with
    loops."""
    core = Graph(p=3, arcs=complete(3).arcs, loops={1: 2, 3: -1})
    gamma = [TWIG, attach_root_loop(path(3).with_root(2), 1), k1(loop=3)]
    unit = mode.w1_unit
    product, maps = rooted_product(core, gamma)
    want = circuit_poly(product, 9, mode)
    triples = [attachment_polys(attach_root_loop(h, core.loop(k + 1) + h.loop(h.root)),
                                mode, 9, maps[k]) for k, h in enumerate(gamma)]
    core_hat = Graph(p=3, arcs=core.arcs,
                     loops={v: core.loop(v) + h.loop(h.root) for v, h in enumerate(gamma, 1)})
    assert rooted_product_poly(circuit_poly(core_hat, 9, mode), tri_pairs(triples), unit) == want
    assert rooted_product_poly(circuit_poly(strip_all_loops(core), 9, mode),
                               hat_pairs(triples), unit) == want

    for h in gamma:
        product, maps = rooted_product(core, [h, k1(), k1()])
        hhat = attach_root_loop(h, core.loop(1) + h.loop(h.root))
        _, pl, ptri = attachment_polys(hhat, mode, 9, maps[0])
        core_hat = Graph(p=3, arcs=core.arcs, loops={**core.loops, 1: core.loop(1) + h.loop(h.root)})
        got = coalescence_poly(circuit_poly(core_hat, 9, mode), pl, ptri, xvar(1), w1_unit=unit)
        assert got == circuit_poly(product, 9, mode)


def test_core_term_without_its_unit_is_rejected():
    bare = Poly.variable(xvar(1))  # x1 without the w1 of its fixed point
    ph, pl, ptri = attachment_polys(TWIG, GENERIC, 9, {1: 1, 2: 2})
    with pytest.raises(ValueError, match="not divisible by w1"):
        rooted_product_poly(bare, [(ptri, pl)], W1)
    with pytest.raises(ValueError, match="not divisible by w1"):
        coalescence_poly(bare, pl, ptri, xvar(1), w1_unit=W1)


def test_bipartite_expansion_validation():
    with pytest.raises(ValueError, match="coefficients"):
        BipartiteExpansion((Poly.one(),), 2, 1)
    with pytest.raises(ValueError, match="leading"):
        BipartiteExpansion((Poly.const(2), Poly.one()), 1, 1)
