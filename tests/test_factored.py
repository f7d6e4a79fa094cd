from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given, strategies as st
from sympy import ZZ
from sympy.polys.rootisolation import dup_count_real_roots

from _brute import tree_char_value
from rootedpoly.factor import dendrimer_factored, dendrimer_poly
from rootedpoly.factored import CoprimeBase, Factored, _exquo, _gcd, divides, multiplicity_at
from rootedpoly.graph import DendrimerSpec, Graph, complete, cycle, dendrimer, k1, path
from rootedpoly.oracle import (CHARACTERISTIC_STANDARD, CHARACTERISTIC_UNIFORM, GENERIC,
                               MATCHING_MINUS, MATCHING_PLUS, PERMANENTAL, WeightMode,
                               simple_circuit_poly)
from rootedpoly.poly import Poly, X, parse_poly, wvar
from rootedpoly.spectra import _real_root_count, dendrimer_spectrum

# UNIT_TWO has a one-vertex unit other than +-1, so the tier step's division
# by the unit cannot pass for a multiplication
UNIT_TWO = WeightMode("unit-two", sigma_b=-1, w1=2, w2=3, w_rest=-1)
MODES = [CHARACTERISTIC_STANDARD, PERMANENTAL, MATCHING_MINUS, CHARACTERISTIC_UNIFORM, GENERIC, UNIT_TWO]


def as_sympy(f: list[int]) -> sympy.Poly:
    """A factor, an integer list in x, as a sympy polynomial."""
    return sympy.Poly(f, sympy.Symbol("x"))


def hand_built(const, powers: list[tuple[str, int]]) -> tuple[Factored, Poly]:
    """A Factored value built directly from (polynomial text, exponent)
    pairs, and the same product multiplied out as Poly values."""
    fac = Factored(const, tuple((parse_poly(text).univariate_coeffs(X), m) for text, m in powers))
    want = Poly.const(const)
    for text, m in powers:
        want = want * parse_poly(text) ** m
    return fac, want


def test_from_poly_splits_square_free_parts():
    f = Factored.from_poly(parse_poly("-2*x^5 + 4*x^4 - 2*x^3"))  # -2 x^3 (x - 1)^2
    assert f.const == -2
    assert sorted((str(as_sympy(g).as_expr()), m) for g, m in f.factors) == [("x", 3), ("x - 1", 2)]
    assert f.degree() == 5
    assert f.expand() == parse_poly("-2*x^5 + 4*x^4 - 2*x^3")
    # a factor with a zero constant term that is not a monomial
    fac, want = hand_built(1, [("x^2 - 2*x", 3)])
    assert fac.expand() == want


def test_from_poly_rational_and_constant():
    p = parse_poly("1/2*x^2 - 1/3")
    f = Factored.from_poly(p)
    assert f.factors[0][0] == [3, 0, -2]
    assert f.expand() == p
    assert Factored.from_poly(Poly.const(Fraction(-3, 4))).expand() == Poly.const(Fraction(-3, 4))
    for const, powers in [(Fraction(5, 7), []),
                          (Fraction(-3, 2), [("x", 4), ("x - 1", 2), ("x^2 + x + 1", 3),
                                             ("2*x + 3", 5), ("x^3 - 2", 7)])]:
        fac, want = hand_built(const, powers)
        assert fac.expand() == want
    with pytest.raises(ValueError):
        Factored.from_poly(Poly.zero())


def test_from_poly_rejects_float_coefficients():
    with pytest.raises(ValueError, match="exact coefficients"):
        Factored.from_poly(Poly.from_univariate_coeffs([1, -0.5, 2]))
    with pytest.raises(ValueError, match="exact coefficients"):
        Factored.from_poly(Poly.variable(X) * Poly.variable(wvar(1)) + 0.25)


@st.composite
def x_only_products(draw) -> tuple:
    """A constant and (list, multiplicity) pairs, lists highest degree first:
    factors h(x**d) x**a for a shared d of 2 or 3, some in x alone (so the
    product's stride falls to 1), negative constant terms, constant factors
    and multiplicities up to 30."""
    const = draw(st.sampled_from([1, -1, 3, Fraction(-2, 5)]))
    d = draw(st.sampled_from([2, 3]))
    factors = []
    for _ in range(draw(st.integers(0, 4))):
        stride = draw(st.sampled_from([d, d, 1]))
        h = [draw(st.integers(-9, 9).filter(bool))]  # ascending, h(0) != 0
        if draw(st.booleans()):
            h += draw(st.lists(st.integers(-9, 9), max_size=1)) + [draw(st.integers(-9, 9).filter(bool))]
        g = [0] * draw(st.integers(0, 3))  # ascending, x**a h(x**stride)
        for c in h[:-1]:
            g += [c] + [0] * (stride - 1)
        factors.append(((g + h[-1:])[::-1], draw(st.integers(1, 30))))
    return const, factors


PATH_GEN3 = (1, [([1, 0], 5), ([1, 0, -2], 2), ([1, 0, -4], 1), ([1, 0, -6, 0, 4], 1)])
IN_X3 = (-3, [([1, 0, 0, -2], 7), ([1, 0, 0, 1, 0, 0, -5], 4), ([1, 0, 0], 1), ([-2], 3)])


@given(x_only_products())
@example(PATH_GEN3)  # the binary path(3) dendrimer at generation 3: every factor in x^2
@example(IN_X3)      # every factor in x^3 after x^2 and a constant factor split off
def test_expand_in_x_matches_poly_powers(product):
    const, factors = product
    want = Poly.const(const)
    for f, m in factors:
        want = want * Poly.from_univariate_coeffs(f) ** m
    assert Factored(const, tuple(factors)).expand() == want


def test_dendrimer_factors_are_polynomials_in_x_squared():
    """The PATH_GEN3 example is what the tier recursion gives."""
    spec = DendrimerSpec(core=k1(rooted=False), unit=path(3).with_root(2),
                         attach_sites=(1, 3), generations=3)
    fac = dendrimer_factored(spec, CHARACTERISTIC_STANDARD)
    assert (fac.const, list(fac.factors)) == PATH_GEN3


def test_absorb_splits_an_element_and_rewrites_held_products():
    base = CoprimeBase()
    c1, e1 = base.absorb(parse_poly("3*x^2 - 3"))
    assert (c1, e1) == (3, {0: 1})
    held = dict(e1)
    c2, e2 = base.absorb(parse_poly("x^3 - 3*x + 2"), held=[held])  # (x - 1)^2 (x + 2)
    assert base.factored(c1, held).expand() == parse_poly("3*x^2 - 3")
    assert base.factored(c2, e2).expand() == parse_poly("x^3 - 3*x + 2")
    assert sorted(str(as_sympy(g).as_expr()) for g in base.polys) == ["x + 1", "x + 2", "x - 1"]
    assert sorted(e2.values()) == [1, 2]


# -- integer list arithmetic in x against sympy ------------------------------------

@st.composite
def int_lists(draw, bound: int = 9) -> list[int]:
    """Nonzero integer coefficient lists of degree at most 6, highest degree
    first, with coefficients up to bound times the content: some negative
    leading coefficients, some zero constant terms, some content above 1 and
    some constants."""
    head = draw(st.integers(-bound, bound).filter(bool))
    body = draw(st.lists(st.integers(-bound, bound), max_size=4))
    zeros = draw(st.integers(0, 2))
    content = draw(st.integers(1, 6))
    return [content * c for c in [head] + body] + [0] * zeros


def product(a: list[int], b: list[int]) -> list[int]:
    return [int(c) for c in (as_sympy(a) * as_sympy(b)).all_coeffs()]


@given(int_lists(), int_lists(), int_lists())
def test_list_gcd_and_exact_quotient_match_sympy(a, b, c):
    f, g = product(a, c), product(b, c)  # a shared factor c
    for u, v in ((f, g), (a, b), (f, c), (a, a)):
        want = [int(k) for k in as_sympy(u).gcd(as_sympy(v)).all_coeffs()]
        assert _gcd(u, v) == want == _gcd(v, u)
    assert _exquo(f, c) == a and _exquo(g, b) == c
    for u, v in ((f, b), (a, c), (c, f)):
        try:
            want = [int(k) for k in as_sympy(u).exquo(as_sympy(v), auto=False).all_coeffs()]
        except sympy.polys.polyerrors.ExactQuotientFailed:
            with pytest.raises(ArithmeticError):
                _exquo(u, v)
        else:
            assert _exquo(u, v) == want


@given(int_lists(10 ** 4), int_lists(10 ** 4), int_lists(10 ** 4))
def test_heuristic_gcd_matches_sympy_on_wide_coefficients(a, b, c):
    f, g = product(a, c), product(b, c)  # a shared factor c, degree up to 12
    want = [int(k) for k in as_sympy(f).gcd(as_sympy(g)).all_coeffs()]
    assert _gcd(f, g) == want == _gcd(g, f)


def test_heuristic_gcd_grows_xi_past_a_false_candidate():
    # xi = 2 * 1 + 29 = 31 first: gcd(32, 64) = 32 reads as x + 1, which
    # does not divide x + 33, so xi must grow before the gcd 1 is found
    assert _gcd([1, 1], [1, 33]) == [1]


@st.composite
def square_free_lists(draw) -> list[int]:
    """Square-free integer lists of degree 1 to 12, highest degree first:
    distinct rational linear factors, so that many roots are real, times
    one more list."""
    linear = draw(st.lists(st.tuples(st.integers(1, 5), st.integers(-20, 20)), max_size=6,
                           unique_by=lambda ab: Fraction(ab[1], ab[0])))
    f = as_sympy(draw(int_lists()))
    for a, b in linear:
        f *= as_sympy([a, -b])
    assume(1 <= f.degree() <= 12 and f.is_sqf)
    return [int(k) for k in f.all_coeffs()]


@given(square_free_lists())
@example([1, 0, -2])        # two real roots, irrational
@example([-1, 0, 0, 0, 1])  # negative leading coefficient, two real roots of four
def test_sturm_count_on_lists_matches_sympy(f):
    assert _real_root_count(f) == dup_count_real_roots(f, ZZ)


@pytest.fixture
def sqf_calls(monkeypatch) -> list[int]:
    """The degree of each polynomial that sympy.Poly.sqf_list is called on."""
    calls = []
    original = sympy.Poly.sqf_list

    def counted(self, *args, **kwargs):
        calls.append(self.degree())
        return original(self, *args, **kwargs)

    monkeypatch.setattr(sympy.Poly, "sqf_list", counted)
    return calls


def test_only_leftovers_with_repeated_roots_reach_sympy(sqf_calls):
    spec = DendrimerSpec(core=k1(rooted=False), unit=path(3).with_root(2),
                         attach_sites=(1, 3), generations=6)
    dendrimer_spectrum(spec, CHARACTERISTIC_STANDARD)
    assert sqf_calls == []
    f = Factored.from_poly(parse_poly("x^3 - 3*x + 2"))  # (x - 1)^2 (x + 2)
    assert sqf_calls == [3]
    assert sorted(m for _, m in f.factors) == [1, 2]


def test_list_exact_quotient_raises_on_a_remainder():
    assert _exquo([2, 0, -2], [1, -1]) == [2, 2]
    for f, g in (([1, 0, 1], [1, -1]), ([3, 3], [2]), ([1, 1], [1, 0, 0]), ([2, 1], [2, 0])):
        with pytest.raises(ArithmeticError):
            _exquo(f, g)


# -- divisibility and root multiplicity on the integer lists ------------------------

FRACTION_COEFFS = st.fractions(min_value=-5, max_value=5, max_denominator=6)

FRACTION_POLYS = st.lists(FRACTION_COEFFS, min_size=1, max_size=5).map(Poly.from_univariate_coeffs)


@given(st.fractions(min_value=-4, max_value=4, max_denominator=5).filter(bool),
       st.integers(0, 4), FRACTION_POLYS.filter(bool))
@example(Fraction(2, 3), 2, parse_poly("3*x^2 - 2*x"))  # g has the root 2/3 once more
def test_multiplicity_counts_each_linear_factor(lam, k, g):
    b, a = lam.denominator, lam.numerator
    p = (b * Poly.variable(X) - a) ** k * g
    assert multiplicity_at(p, lam) == k + multiplicity_at(g, lam)


@given(st.integers(-6, -1), st.lists(st.integers(-4, 4), min_size=1, max_size=3).filter(any),
       FRACTION_COEFFS.filter(lambda c: c > 0), FRACTION_POLYS)
def test_divides_round_trip_with_negative_non_primitive_divisors(lead, rest, scale, q):
    """d is a positive scale times a non-constant integer list with the
    negative leading coefficient lead and content |lead|, so the quotient
    depends on that content and its sign."""
    d = scale * Poly.from_univariate_coeffs([lead] + [lead * c for c in rest])
    assert divides(d, d * q) == (True, q)
    assert divides(d, d * q + 1) == (False, None)


def test_divides_scales_the_quotient_by_the_divisor_content():
    x = Poly.variable(X)
    assert divides(-2 * x + 4, x ** 2 - 4) == (True, Fraction(-1, 2) * x - 1)
    assert divides(Fraction(-2, 3) * x + Fraction(4, 3), x ** 2 - 4) == (True, Fraction(-3, 2) * x - 3)
    assert divides(-2 * x + 4, x ** 2 + 4) == (False, None)
    assert divides(Poly.const(-6), Fraction(3, 2) * x) == (True, Fraction(-1, 4) * x)
    assert divides(x, Poly.zero()) == (True, Poly.zero())


def test_kernel_rejects_zero_float_and_multivariate_input():
    x, w1 = Poly.variable(X), Poly.variable(wvar(1))
    with pytest.raises(ValueError, match="zero divisor"):
        divides(Poly.zero(), x)
    with pytest.raises(ValueError, match="zero polynomial"):
        multiplicity_at(Poly.zero(), 0)
    with pytest.raises(ValueError, match="exact"):
        divides(x, 0.5 * x ** 2)
    with pytest.raises(ValueError, match="unsupported divisor"):
        divides(0.5 * x, x ** 2)
    with pytest.raises(ValueError, match="exact"):
        multiplicity_at(x ** 2 - 0.25, Fraction(1, 2))
    with pytest.raises(ValueError, match="not univariate"):
        divides(x, w1 * x ** 2)
    with pytest.raises(ValueError, match="unsupported divisor"):
        divides(w1 * x, x ** 2)
    with pytest.raises(ValueError, match="not univariate"):
        multiplicity_at(w1 * x, 0)


# -- the factored tier recursion against the built dendrimer ------------------------

WEIGHTS = [1, -1, 2, Fraction(1, 2), Fraction(-3, 2)]
LIMIT = 12  # vertices of the built dendrimer, so the enumeration oracle stays quick


@st.composite
def weighted_graphs(draw, n: int) -> tuple[dict, dict]:
    """Edges, one-way arcs or nothing between each pair; some loops."""
    weight = st.sampled_from(WEIGHTS)
    arcs = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            kind = draw(st.sampled_from(["none", "edge", "edge", "forward", "backward", "both"]))
            if kind == "edge":
                arcs[(i, j)] = arcs[(j, i)] = draw(weight)
            if kind in ("forward", "both"):
                arcs[(i, j)] = draw(weight)
            if kind in ("backward", "both"):
                arcs[(j, i)] = draw(weight)
    loops = draw(st.dictionaries(st.integers(1, n), weight, max_size=n))
    return arcs, loops


def branch_size(unit_p: int, sites: int, tiers: int) -> int:
    copies = tiers if sites == 1 else (sites ** tiers - 1) // (sites - 1)
    return 1 + (unit_p - 1) * copies


@st.composite
def dendrimer_specs(draw) -> DendrimerSpec:
    n = draw(st.integers(2, 4))
    arcs, loops = draw(weighted_graphs(n))
    root = draw(st.integers(1, n))
    sites = draw(st.lists(st.sampled_from([v for v in range(1, n + 1) if v != root]),
                          min_size=1, unique=True))
    c = draw(st.integers(1, 3))
    core_arcs, core_loops = draw(weighted_graphs(c))
    tiers = [g for g in range(4) if c * branch_size(n, len(sites), g) <= LIMIT]
    return DendrimerSpec(core=Graph(p=c, arcs=core_arcs, loops=core_loops),
                         unit=Graph(p=n, arcs=arcs, loops=loops, root=root),
                         attach_sites=tuple(sites), generations=draw(st.sampled_from(tiers)))


def dense_matrix(g: Graph) -> np.ndarray:
    m = np.zeros((g.p, g.p))
    for (i, j), w in g.arcs.items():
        m[i - 1, j - 1] = float(w)
    for v, b in g.loops.items():
        m[v - 1, v - 1] += float(b)
    return m


# a unit with its own loops at the root, at the attach site and at the bare
# vertex, on a looped core: every side of the loop split carries weight
LOOPED = DendrimerSpec(core=Graph(p=2, arcs={(1, 2): 1, (2, 1): 1}, loops={1: Fraction(5, 7)}),
                       unit=Graph(p=3, arcs={(1, 2): 1, (2, 1): 1, (2, 3): 2, (3, 2): 2},
                                  loops={1: Fraction(1, 2), 2: Fraction(-2, 3), 3: Fraction(3)},
                                  root=1),
                       attach_sites=(2,), generations=2)


@given(dendrimer_specs(), st.sampled_from(MODES))
@example(LOOPED, CHARACTERISTIC_STANDARD)
@example(LOOPED, GENERIC)
@example(LOOPED, UNIT_TWO)
def test_factored_recursion_matches_built_dendrimer(spec, mode):
    built = dendrimer(spec)
    assert dendrimer_poly(spec, mode) == simple_circuit_poly(built, mode, cap=built.p)

    if mode is GENERIC:  # symbolic weights: plain polynomials, no coprime base
        return
    fac = dendrimer_factored(spec, mode)
    polys = [as_sympy(f) for f, _ in fac.factors]
    for k, f in enumerate(polys):
        assert not f.is_ground
        assert [m for _, m in f.sqf_list()[1]] == [1]
        for g in polys[k + 1:]:
            assert f.gcd(g).is_ground
    product = Poly.const(fac.const)
    for f, m in fac.factors:
        product = product * Factored(1, ((f, 1),)).expand() ** m
    assert fac.expand() == product

    if mode is CHARACTERISTIC_STANDARD:
        rs = dendrimer_spectrum(spec, mode)
        assert rs.source_degree == built.p
        want = list(np.linalg.eigvals(dense_matrix(built)))
        scale = max(1.0, max(abs(v) for v in want))
        # a defective eigenvalue of multiplicity m comes out of eigvals
        # scattered by about eps**(1/m), but the mean of its copies is accurate
        for value, mult in sorted(rs.roots, key=lambda vm: -vm[1]):
            want.sort(key=lambda v: abs(v - value))
            copies, want = want[:mult], want[mult:]
            assert abs(sum(copies) / mult - value) <= 1e-6 * scale


def test_generic_dendrimer_poly_runs_on_plain_polynomials():
    spec = DendrimerSpec(core=Graph(p=2, arcs={(1, 2): 1, (2, 1): 1}),
                         unit=Graph(p=2, arcs={(1, 2): 1, (2, 1): 1}, root=1),
                         attach_sites=(2,), generations=2)
    assert dendrimer_poly(spec, GENERIC) == simple_circuit_poly(dendrimer(spec), GENERIC)
    with pytest.raises(ValueError, match="w1, w2 symbolic"):
        dendrimer_factored(spec, GENERIC)


def test_coprime_base_holds_polynomials_in_x_alone():
    with pytest.raises(ValueError, match="not univariate in x"):
        CoprimeBase().absorb(parse_poly("x^2*w1 - 1"))


# C4 on C4 (unit C4 rooted at 1, sites 2 and 4) at generation 3 has 88
# vertices and K3 on K3 (unit K3 rooted at 1, sites 2 and 3) at generation 4
# has 93, far beyond enumeration
CYCLIC_SPECS = [
    DendrimerSpec(core=cycle(4), unit=cycle(4).with_root(1), attach_sites=(2, 4), generations=3),
    DendrimerSpec(core=complete(3), unit=complete(3).with_root(1), attach_sites=(2, 3),
                  generations=4),
]


@pytest.mark.parametrize("spec", CYCLIC_SPECS, ids=["C4-on-C4", "K3-on-K3"])
def test_generic_dendrimer_poly_specializes_to_numeric_modes(spec):
    generic = dendrimer_poly(spec, GENERIC)
    weights = generic.variables() - {X}
    assert {str(v) for v in weights} >= {"w1", "w2"}
    assert any(v.index >= 3 for v in weights)  # cycles, which matchings drop
    everyone = generic.substitute_many(dict.fromkeys(weights, 1))
    assert everyone == dendrimer_poly(spec, PERMANENTAL)
    matchings = generic.substitute_many({v: 1 if v.index <= 2 else 0 for v in weights})
    assert matchings == dendrimer_poly(spec, MATCHING_PLUS)


def test_dendrimer_poly_of_an_8191_vertex_binary_tree():
    """The gen-12 binary path(3) dendrimer is the complete binary tree of
    depth 12; its polynomial is checked at points away from the spectrum
    against leaf elimination on the explicitly built tree."""
    spec = DendrimerSpec(core=k1(rooted=False), unit=path(3).with_root(2),
                         attach_sites=(1, 3), generations=12)
    coeffs = dendrimer_poly(spec, CHARACTERISTIC_STANDARD).univariate_coeffs(X)
    n = 2 ** 13 - 1
    assert (len(coeffs) - 1, coeffs[0]) == (n, 1)
    parent = [-1] + [(v - 1) // 2 for v in range(1, n)]
    for t in (Fraction(3), Fraction(-4), Fraction(7, 2)):
        acc, scale = 0, 1  # Horner on b**n * P(a / b), in integers
        for c in coeffs:
            acc = acc * t.numerator + c * scale
            scale *= t.denominator
        assert Fraction(acc, t.denominator ** n) == tree_char_value(parent, t)
