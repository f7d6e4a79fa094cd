import math
from collections import Counter
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, reject, strategies as st

from _brute import brute_char_poly
from rootedpoly import factor
from rootedpoly.factor import dendrimer_factored, dendrimer_poly, dendrimer_spectrum
from rootedpoly.graph import (DendrimerSpec, Graph, complete, cycle, delete_root, k1, path,
                              star)
from rootedpoly.oracle import (CHARACTERISTIC_STANDARD, GENERIC, MATCHING_MINUS, PERMANENTAL,
                               circuit_poly, simple_circuit_poly)
from rootedpoly.factored import Factored, multiplicity_at
from rootedpoly.poly import Poly, X, parse_poly
from rootedpoly.spectra import RootSet, _exact_step, _exact_value, _float_coeffs, roots

CHAR = CHARACTERISTIC_STANDARD


def test_roots_of_quadratic():
    rs = roots(parse_poly("x^2 - 1"))
    assert [(round(v.real, 9), m) for v, m in rs.roots] == [(1.0, 1), (-1.0, 1)]


def test_roots_flagship_polynomial():
    rs = roots(parse_poly("x^9 - 8*x^7 + 18*x^5 - 12*x^3"))
    got = [(v.real, m) for v, m in rs.roots]
    expect = [(2.175, 1), (1.414, 1), (1.126, 1), (0.0, 3),
              (-1.126, 1), (-1.414, 1), (-2.175, 1)]
    for (gv, gm), (ev, em) in zip(got, expect):
        assert gm == em
        assert abs(gv - ev) < 1e-3
    assert rs.roots[3] == (0, 3)  # exact triple zero
    assert max(rs.residuals) < 1e-10


def test_roots_double_zero():
    rs = roots(parse_poly("x^2"))
    assert rs.roots == ((0, 2),)


def test_roots_rejects_constants():
    with pytest.raises(ValueError, match="degree 0"):
        roots(Poly.const(3))


def test_roots_float_coefficients():
    p = Poly.from_univariate_coeffs([1.0, 0.0, -2.0])
    rs = roots(p)
    values = sorted(v.real for v in rs.expanded())
    assert abs(values[0] + math.sqrt(2)) < 1e-12
    assert abs(values[1] - math.sqrt(2)) < 1e-12


def test_roots_of_float_coefficients_merge_within_cluster_tol():
    # (x - 1)^2 (x - 3) in floats: the double root comes out as two roots
    # about 1e-8 apart, which merge into one of multiplicity 2; 3 stays apart
    p = Poly.from_univariate_coeffs([1.0, -5.0, 7.0, -3.0])
    rs = roots(p, cluster_tol=1e-6)
    assert [m for _, m in rs.roots] == [1, 2]
    assert abs(rs.roots[0][0] - 3) < 1e-12 and abs(rs.roots[1][0] - 1) < 1e-7
    assert len(rs.residuals) == 2
    assert [m for _, m in roots(p, cluster_tol=1e-12).roots] == [1, 1, 1]


def test_roots_conjugate_closure():
    p = simple_circuit_poly(Graph(p=3, arcs={(1, 2): 1, (2, 3): 1, (3, 1): 1}), CHAR)
    rs = roots(p)
    values = rs.expanded()
    for v in values:
        assert any(abs(v.conjugate() - u) < 1e-9 for u in values)


def test_roots_multiplicity_sum_and_order():
    for g in (path(5), star(4), cycle(6)):
        p = brute_char_poly(g)
        rs = roots(p)
        assert rs.source_degree == g.p
        assert sum(m for _, m in rs.roots) == g.p
        reals = [v.real for v in rs.values()]
        assert reals == sorted(reals, reverse=True)


def test_roots_reconstruct_monic_input():
    for g in (path(6), star(5), cycle(8), complete(4), path(12), cycle(12)):
        p = brute_char_poly(g)
        rs = roots(p)
        recon = Poly.one()
        for v, m in rs.roots:
            recon = recon * (Poly.variable(X) - v) ** m
        ce = [complex(c) for c in p.univariate_coeffs(X)]
        cn = [complex(c) for c in recon.univariate_coeffs(X)]
        assert max(abs(a - b) for a, b in zip(ce, cn)) < 1e-8


def test_bipartite_negation_symmetry():
    for g in (path(4), star(3), cycle(6)):
        rs = roots(brute_char_poly(g))
        values = rs.expanded()
        for v in values:
            assert any(abs(v + u) < 1e-8 for u in values)


def test_multiplicity_at_examples():
    assert multiplicity_at(parse_poly("x^4 - 3*x^2"), 0) == 2
    assert multiplicity_at(parse_poly("x^2 - 1"), 0) == 0
    assert multiplicity_at(parse_poly("x^3"), 0) == 3
    assert multiplicity_at(parse_poly("x^2 - x - 1/4"), Fraction(1, 2)) == 0


def test_rootset_validates_total():
    with pytest.raises(ValueError, match="multiplicities"):
        RootSet(roots=((1.0, 1),), source_degree=2, cluster_tol=1e-7, residuals=(0.0,))


def path_spec(generations: int) -> DendrimerSpec:
    return DendrimerSpec(core=k1(rooted=False), unit=complete(2).with_root(1),
                         attach_sites=(2,), generations=generations)


def test_dendrimer_spectrum_zero_generations_is_core_root():
    spec = DendrimerSpec(core=Graph(p=1, loops={1: 2}), unit=complete(2).with_root(1),
                         attach_sites=(2,), generations=0)
    # with the all-plus convention the single vertex polynomial is x + b
    rs = dendrimer_spectrum(spec, PERMANENTAL)
    assert abs(rs.roots[0][0] - (-2)) < 1e-12
    # under the determinant convention the loop enters negated
    rs = dendrimer_spectrum(spec, CHAR)
    assert abs(rs.roots[0][0] - 2) < 1e-12


def test_dendrimer_spectrum_rejects_symbolic_weights_before_the_recursion(monkeypatch):
    def recursion(*args, **kwargs):
        raise AssertionError("the tier recursion ran")

    monkeypatch.setattr(factor, "_branch_factored", recursion)
    for mode in (GENERIC, GENERIC.simple()):
        with pytest.raises(ValueError, match="symbolic; only polynomials in x are factored"):
            dendrimer_spectrum(path_spec(3), mode)


def test_dendrimer_spectrum_paths():
    for j in (1, 3, 7):
        rs = dendrimer_spectrum(path_spec(j), CHAR)
        n = j + 1
        expect = sorted((2 * math.cos(k * math.pi / (n + 1)) for k in range(1, n + 1)),
                        reverse=True)
        got = sorted((v.real for v in rs.expanded()), reverse=True)
        assert max(abs(a - b) for a, b in zip(expect, got)) < 1e-8


def test_dendrimer_spectrum_degree_equals_vertex_count():
    spec = DendrimerSpec(core=k1(rooted=False), unit=path(3).with_root(2),
                         attach_sites=(1, 3), generations=5)
    rs = dendrimer_spectrum(spec, CHAR)
    assert rs.source_degree == 1 + 2 * (2 ** 5 - 1)


def test_dendrimer_poly_never_builds_graph_beyond_cap():
    # 1023 vertices is far above the enumeration cap; only the 3-vertex unit
    # and the 1-vertex core are ever enumerated
    spec = DendrimerSpec(core=k1(rooted=False), unit=path(3).with_root(2),
                         attach_sites=(1, 3), generations=9)
    poly = dendrimer_poly(spec, CHAR, cap=4)
    assert poly.degree_in(X) == 1023


def test_roots_scale_huge_coefficients_exactly():
    x = Poly.variable(X)
    rs = roots(x * x - 2 ** 1200)
    assert [(v.real, v.imag, m) for v, m in rs.roots] == pytest.approx(
        [(2.0 ** 600, 0, 1), (-2.0 ** 600, 0, 1)], rel=1e-12)
    # 2^1100 is beyond the double range and comes out infinite; the root 1 survives it
    rs = roots((x - 2 ** 1100) * (x - 1))
    assert rs.roots[0] == (complex(math.inf, 0), 1)
    assert rs.roots[1][1] == 1 and abs(rs.roots[1][0] - 1) < 1e-12
    rs = roots((x - 2 ** 1000) * (x - 1))
    assert [(v.real, m) for v, m in rs.roots] == pytest.approx([(2.0 ** 1000, 1), (1, 1)], rel=1e-12)


@pytest.mark.parametrize("c", [2 ** 1400, 2 ** 1400 + 12345, 3 ** 950])
def test_roots_refuse_a_factor_no_scaling_fits(c):
    """x^2 + c x + 1 has roots near -c and -1/c, beyond the double range at
    both ends: its scaled leading coefficient rounds to 0, so the factor is
    refused before any root finding."""
    with pytest.raises(ValueError, match="scaled leading coefficient rounds to 0"):
        roots(Poly.from_univariate_coeffs([1, c, 1]))


def test_roots_never_merge_coprime_factors():
    x = Poly.variable(X)
    near = 1 + Fraction(1, 10 ** 9)
    rs = roots((x - 1) ** 2 * (x - near))
    assert [m for _, m in rs.roots] == [1, 2]
    assert abs(rs.roots[0][0] - float(near)) < 1e-15 and abs(rs.roots[1][0] - 1) < 1e-15


def test_roots_of_exact_input_are_never_merged():
    # 10^16 x^2 - 1 is square-free: its roots +-1e-8 are simple, although
    # closer together than the cluster tolerance
    rs = roots(parse_poly("10000000000000000*x^2 - 1"))
    assert [m for _, m in rs.roots] == [1, 1]
    assert [v.real for v in rs.values()] == pytest.approx([1e-8, -1e-8], rel=1e-12)


def test_roots_of_exact_factors_match_mpmath():
    """Every root of the C4-on-C4 factors at generations 6 and 8, whose
    largest ones are ill-conditioned, and of the largest one with its roots
    scaled by 2**100, which _float_coeffs has to scale, lies within 1e-12
    relative of mpmath's roots at 60 digits."""
    unit = cycle(4).with_root(1)
    cases = {}
    with mpmath.workdps(60):
        for gen in (6, 8):
            spec = DendrimerSpec(core=cycle(4), unit=unit, attach_sites=(2, 4), generations=gen)
            for f, _ in dendrimer_factored(spec, CHAR).factors:
                cases[tuple(f)] = mpmath.polyroots(f, maxsteps=100, extraprec=100)
        big = max(cases, key=len)
        # 2**(100 n) * big(x / 2**100), whose roots are 2**100 times those of big
        scaled = [c << 100 * i for i, c in enumerate(big)]
        cases[tuple(scaled)] = [r * mpmath.mpf(2) ** 100 for r in cases[big]]
    assert _float_coeffs(scaled)[1] != 0
    for f, want in cases.items():
        got = roots(Factored(1, ((list(f), 1),))).values()
        assert len(got) == len(want)
        for z in got:
            assert min(abs(z - w) / abs(w) if w else abs(z) for w in want) <= 1e-12


def test_exact_step_keeps_the_iterate_when_it_cannot_step():
    def overflowing(a, b, k):
        raise OverflowError

    def zero(a, b, k):
        return 0j

    z = complex(1.5, -0.25)
    assert _exact_step([0j], z, zero) == z  # the derivative is 0
    assert _exact_step([1 + 0j], z, overflowing) == z
    for bad in (complex(math.inf, 0), complex(math.nan, 1)):
        assert _exact_step([1 + 0j], bad, zero) is bad
    assert _exact_step([1e-320 + 0j], z, lambda a, b, k: complex(1e300, 0)) == z  # not finite
    # the value of x^2 at 2^1000 is beyond the double range
    with pytest.raises(OverflowError):
        _exact_value([1, 0, 0], 0, 0, 1, 0, -1000)
    assert _exact_step([2 + 0j, 0j], complex(2.0 ** 1000, 0),
                       lambda a, b, k: _exact_value([1, 0, 0], 0, 0, a, b, k)) == 2.0 ** 1000


@given(st.lists(st.integers(-2 ** 1200, 2 ** 1200), min_size=2, max_size=9).filter(lambda f: f[0]),
       st.floats(), st.floats())
def test_exact_step_never_raises(f, re, im):
    """From any iterate, finite or not, on any integer list, scaled or not,
    that _float_coeffs accepts."""
    try:
        fc, shift, top = _float_coeffs(f)
    except ValueError:  # roots refuses the list before any step
        reject()
    deriv = [c * (len(fc) - 1 - i) for i, c in enumerate(fc[:-1])]
    z = complex(re, im)
    assert isinstance(_exact_step(deriv, z, lambda a, b, k: _exact_value(f, shift, top, a, b, k)),
                      complex)


def test_dendrimer_spectrum_of_symmetric_matrix_is_exactly_real():
    binary = DendrimerSpec(core=k1(rooted=False), unit=path(3).with_root(2),
                           attach_sites=(1, 3), generations=7)
    c4 = DendrimerSpec(core=cycle(4), unit=cycle(4).with_root(1), attach_sites=(2, 4),
                       generations=6)
    for spec in (binary, c4):
        rs = dendrimer_spectrum(spec, CHAR)
        assert all(v.imag == 0 for v in rs.values())


def test_dendrimer_spectrum_path3_gen12():
    spec = DendrimerSpec(core=k1(rooted=False), unit=path(3).with_root(2),
                         attach_sites=(1, 3), generations=12)
    rs = dendrimer_spectrum(spec, CHAR)
    assert rs.source_degree == 8191
    values = rs.expanded()
    # tr A = 0 and tr A^2 = twice the 8190 edges of the tree
    assert abs(sum(values)) < 1e-8
    assert abs(sum(v * v for v in values) - 2 * 8190) < 1e-8


# -- real-rootedness and interlacing through roots ----------------------------------


@st.composite
def undirected_graphs(draw, weights=st.integers(-3, 3), loops: bool = True) -> Graph:
    """Undirected graphs on 1 to 7 vertices: each pair gets an edge of a
    drawn weight, none when it is 0, and with loops, some vertices a loop."""
    p = draw(st.integers(1, 7))
    arcs = {}
    for i in range(1, p + 1):
        for j in range(i + 1, p + 1):
            w = draw(weights)
            if w:
                arcs[i, j] = arcs[j, i] = w
    drawn = draw(st.dictionaries(st.integers(1, p), st.integers(-3, 3), max_size=p if loops else 0))
    return Graph(p=p, arcs=arcs, loops=drawn)


def real_roots(g: Graph, mode) -> list[float]:
    """The roots of g's simple polynomial in mode, each as often as its
    multiplicity, in descending order; every one must come out real."""
    rs = roots(circuit_poly(g, g.p, mode.simple()))
    assert rs.source_degree == g.p
    assert all(v.imag == 0 for v in rs.values())
    return [v.real for v in rs.expanded()]


def assert_interlaced(g: Graph, mode, outer: list[float], v: int) -> None:
    """The roots of G - v interlace those of G: outer[i] >= inner[i] >= outer[i + 1]."""
    if g.p == 1:
        return
    inner = real_roots(delete_root(g.with_root(v)), mode)
    for i, t in enumerate(inner):
        assert outer[i] + 1e-7 >= t >= outer[i + 1] - 1e-7


@given(undirected_graphs(), st.data())
def test_symmetric_characteristic_roots_are_real_and_interlace(g, data):
    """A symmetric real matrix has p real eigenvalues, and those of a
    principal submatrix interlace them (Cauchy)."""
    outer = real_roots(g, CHAR)
    assert_interlaced(g, CHAR, outer, data.draw(st.integers(1, g.p)))


@given(undirected_graphs(weights=st.integers(0, 1), loops=False), st.data())
def test_matching_roots_are_real_bounded_and_interlace(g, data):
    """The matching polynomial is real-rooted with every root within
    2 sqrt(max degree - 1) (Heilmann & Lieb, 1972), and the roots of G - v
    interlace those of G (Godsil, "Algebraic Combinatorics", 1993)."""
    outer = real_roots(g, MATCHING_MINUS)
    degree = max(Counter(i for i, _ in g.arcs).values(), default=0)
    if degree >= 2:
        assert max(map(abs, outer)) <= 2 * math.sqrt(degree - 1) + 1e-9
    assert_interlaced(g, MATCHING_MINUS, outer, data.draw(st.integers(1, g.p)))
