import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, strategies as st

from rootedpoly.factored import divides
from rootedpoly.poly import (Poly, X, multilinear_ratio_substitute, parse_poly, ratio_substitute,
                             wvar, xvar, yvar)

x = Poly.variable(X)
one = Poly.one()


def test_difference_of_squares():
    assert (x + 1) * (x - 1) == x ** 2 - 1


def test_additive_identity():
    p = 3 * x ** 2 - Fraction(1, 2)
    assert p + Poly.zero() == p


def test_power_of_monomial():
    m = Poly.variable(xvar(1)) * Poly.variable(wvar(1))
    assert m ** 2 == Poly.monomial([(xvar(1), 2), (wvar(1), 2)])


def test_substitute_shift():
    p = x ** 2 - 1
    assert p.substitute(X, x + 1) == x ** 2 + 2 * x


def test_substitute_halving():
    w3 = Poly.variable(wvar(3))
    assert w3.substitute(wvar(3), Fraction(1, 2) * w3) == Fraction(1, 2) * w3
    assert str(Fraction(1, 2) * w3) == "1/2*w3"


def test_collapse_cancels_to_zero():
    w1 = Poly.variable(wvar(1))
    p = Poly.variable(xvar(1)) * w1 - Poly.variable(xvar(2)) * w1
    assert p.substitute_many({xvar(1): x, xvar(2): x}) == Poly.zero()


def test_substitute_identity():
    p = x ** 3 - 2 * x + 5
    assert p.substitute(X, Poly.variable(X)) == p


def test_multilinear_two_terms():
    x1, x2 = Poly.variable(xvar(1)), Poly.variable(xvar(2))
    a, b, c, d = (Poly.variable(wvar(i)) for i in (1, 2, 3, 4))
    got = multilinear_ratio_substitute(x1 * x2 + 1, [(xvar(1), a, b), (xvar(2), c, d)])
    assert got == a * c + b * d


def test_multilinear_single_variable():
    n, d = Poly.variable(wvar(1)), Poly.variable(wvar(2))
    assert multilinear_ratio_substitute(Poly.variable(xvar(1)), [(xvar(1), n, d)]) == n


def test_multilinear_pair_product():
    # full polynomial of a single edge, both vertex variables collapsed
    p = parse_poly("x1*x2*w1^2 + w2")
    got = multilinear_ratio_substitute(p, [(xvar(1), x, one), (xvar(2), x, one)])
    assert got == parse_poly("x^2*w1^2 + w2")


def test_multilinear_rejects_higher_degree():
    p = Poly.variable(xvar(1)) ** 2
    with pytest.raises(ValueError, match="not multilinear"):
        multilinear_ratio_substitute(p, [(xvar(1), x, one)])


def test_ratio_substitute_clears_powers():
    y1 = Poly.variable(yvar(1))
    n, d = x, x - 1
    got = ratio_substitute(y1 ** 2 + 1, [(yvar(1), n, d)])
    assert got == n ** 2 + d ** 2


def test_divides_star_factor():
    assert divides(x ** 2, x ** 4 - 3 * x ** 2) == (True, x ** 2 - 3)


def test_divides_negative():
    ok, q = divides(x, x ** 2 - 1)
    assert not ok and q is None


def test_divides_self():
    p = x ** 3 - 2 * x + 7
    assert divides(p, p) == (True, one)


def test_divides_rejects_multivariate():
    with pytest.raises(ValueError, match="unsupported divisor"):
        divides(Poly.variable(wvar(1)) * x, x ** 2)


def test_evaluate():
    p = x ** 2 - 1
    assert p.evaluate({X: 2}) == 3
    assert p.evaluate({X: 1}) == 0


def test_evaluate_float_root():
    p = parse_poly("x^9 - 8*x^7 + 18*x^5 - 12*x^3")
    assert abs(p.evaluate({X: 1.4142135623730951})) < 1e-6


def test_evaluate_missing_variable():
    with pytest.raises(ValueError, match="no value"):
        (x + Poly.variable(wvar(1))).evaluate({X: 1})


def test_coeffs_in_x():
    assert (x ** 2 - 1).coeffs_in_x() == [one, Poly.zero(), Poly.const(-1)]
    assert (x ** 3).coeffs_in_x() == [one, Poly.zero(), Poly.zero(), Poly.zero()]


def test_coeffs_keep_weight_variables():
    w2 = Poly.variable(wvar(2))
    p = x ** 2 * Poly.variable(wvar(1)) + w2
    assert p.coeffs_in_x() == [Poly.variable(wvar(1)), Poly.zero(), w2]


def test_canonical_text():
    assert str(x ** 2 - 1) == "x^2 - 1"
    assert str(Poly.zero()) == "0"
    assert str(parse_poly("-x + 2")) == "-x + 2"
    assert str(Fraction(1, 2) * Poly.variable(wvar(3))) == "1/2*w3"


def test_exponent_limit():
    # a term's exponents are fields of one integer key; none may reach 2**31
    for v in (X, wvar(13)):
        with pytest.raises(OverflowError):
            Poly.monomial([(v, 2 ** 31)])
        big = Poly.monomial([(v, 2 ** 30)])
        with pytest.raises(OverflowError):
            big * big
        with pytest.raises(OverflowError):
            (Poly.variable(yvar(2)) + big) ** 2
        top = big * Poly.monomial([(v, 2 ** 30 - 1)])
        assert top.degree_in(v) == 2 ** 31 - 1 and top.variables() == {v}
    # a one-term replacement is folded into the key, which must not carry either
    x1, x2, w13 = (Poly.monomial([(v, 2 ** 30)]) for v in (xvar(1), xvar(2), wvar(13)))
    for p, mapping in [(x1 * x2, {xvar(1): x, xvar(2): x}),
                       (x1, {xvar(1): x ** 2}),
                       (x1, {xvar(1): x ** 4}),  # 2**32 would carry into y1's field
                       (w13, {wvar(13): Poly.variable(wvar(13)) ** 2})]:
        with pytest.raises(OverflowError):
            p.substitute_many(mapping)


def test_common_denominator_cases():
    # exact coefficients with denominators run on integers scaled by their lcm
    x1, w1, w3 = (Poly.variable(v) for v in (xvar(1), wvar(1), wvar(3)))
    assert parse_poly("1/2*x1 - 1/2*x2").substitute_many({xvar(1): x, xvar(2): x}) == Poly.zero()
    got = parse_poly("1/2*x1 + 1/2*x2 - 1/3*w1").substitute_many({xvar(1): x, xvar(2): x, wvar(1): 3})
    assert str(got) == "x - 1" and got.terms() == {((X, 1),): 1, (): -1}
    got = parse_poly("2/3*w3^2 + 1/6*w3 + x").substitute_many({wvar(3): Fraction(1, 2) * w3})
    assert got == Fraction(1, 6) * w3 ** 2 + Fraction(1, 12) * w3 + x
    got = ratio_substitute(parse_poly("3/4*x1^2 - 1/6*x1 + 1/2"),
                           [(xvar(1), Fraction(1, 2) * x1 - Fraction(2, 3), Fraction(3, 5) * w1 + 1)])
    num, den = Fraction(1, 2) * x1 - Fraction(2, 3), Fraction(3, 5) * w1 + 1
    assert got == Fraction(3, 4) * num ** 2 - Fraction(1, 6) * num * den + Fraction(1, 2) * den ** 2
    assert str(parse_poly("1/2*x1 + 3/2*x2").substitute_many({xvar(1): x, xvar(2): x})) == "2*x"


def test_float_input_keeps_its_rounding_order():
    # a float replacement or coefficient leaves the common denominator out
    got = parse_poly("1/3*x1 + 1/7*x1^2").substitute_many({xvar(1): 0.3}).constant_value()
    assert got == Fraction(1, 3) * 0.3 + Fraction(1, 7) * 0.3 ** 2
    assert got != (7 * 0.3 + 3 * 0.3 ** 2) / 21  # the same sum on one denominator rounds apart
    p = Poly({((xvar(1), 1),): 0.1, ((xvar(2), 1),): Fraction(1, 3)})
    got = p.substitute_many({xvar(1): x, xvar(2): x})
    assert got.terms() == {((X, 1),): 0.1 + Fraction(1, 3)}


# -- property-based checks ---------------------------------------------------

VARS = [X, xvar(1), xvar(2), yvar(1), yvar(2), wvar(1), wvar(2), xvar(13), wvar(13)]


@st.composite
def polys(draw):
    n_terms = draw(st.integers(0, 4))
    p = Poly.zero()
    for _ in range(n_terms):
        coeff = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
        pairs = []
        for v in draw(st.sets(st.sampled_from(VARS), max_size=3)):
            pairs.append((v, draw(st.integers(1, 3))))
        p = p + Poly.monomial(pairs, coeff)
    return p


@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(polys())
def test_parse_print_roundtrip(p):
    assert parse_poly(str(p)) == p


@given(polys())
def test_unit_denominator_matches_plain_substitution(p):
    targets = [(v, Poly.variable(wvar(4)), one) for v in (xvar(1), xvar(2))
               if p.degree_in(v) <= 1]
    got = multilinear_ratio_substitute(p, targets)
    want = p.substitute_many({v: n for v, n, _ in targets})
    assert got == want


@given(polys())
def test_substitution_is_simultaneous(p):
    swap = {xvar(1): Poly.variable(xvar(2)), xvar(2): Poly.variable(xvar(1))}
    assert p.substitute_many(swap).substitute_many(swap) == p


@given(st.lists(st.integers(-3, 3), min_size=1, max_size=4),
       st.lists(st.integers(-3, 3), min_size=1, max_size=4))
def test_divides_roundtrip(dc, pc):
    d = Poly.from_univariate_coeffs(dc)
    q = Poly.from_univariate_coeffs(pc)
    if d.is_zero():
        return
    product = d * q
    ok, got = divides(d, product)
    assert ok and d * got == product


FRACTIONS = st.fractions(min_value=-3, max_value=3, max_denominator=4)
POINTS = st.fixed_dictionaries({v: FRACTIONS for v in VARS})


@given(polys(), st.dictionaries(st.sampled_from(VARS), st.one_of(polys(), FRACTIONS), max_size=3),
       POINTS)
@example(parse_poly("x1*w1 + x1^2 - x*x1^3"), {xvar(1): x + Fraction(1, 2), wvar(1): 3},
         {v: Fraction(k + 2, 3) for k, v in enumerate(VARS)})
@example(parse_poly("w3^3*x1 + w3"), {wvar(3): Fraction(1, 2) * Poly.variable(wvar(3)), xvar(1): 0},
         {v: Fraction(k + 2, 3) for k, v in enumerate(VARS + [wvar(3)])})
@example(parse_poly("x1^2*x2^3*w1 + x1*x2 - x2^3"), {xvar(1): x, xvar(2): x + 1},
         {v: Fraction(k + 2, 3) for k, v in enumerate(VARS)})
def test_substitution_commutes_with_evaluation(p, mapping, point):
    moved = {v: q.evaluate(point) if isinstance(q, Poly) else q for v, q in mapping.items()}
    assert p.substitute_many(mapping).evaluate(point) == p.evaluate({**point, **moved})


@given(polys(),
       st.lists(st.tuples(st.sampled_from(VARS), st.one_of(polys(), FRACTIONS.map(Poly.const)),
                          st.one_of(polys(), FRACTIONS.map(Poly.const))),
                max_size=3, unique_by=lambda t: t[0]),
       POINTS)
@example(parse_poly("x1*w1 + x1^2 - x*x1^3 + 2"), [(xvar(1), x - 1, Poly.variable(wvar(2)) + 1)],
         {v: Fraction(k + 2, 3) for k, v in enumerate(VARS)})
@example(parse_poly("x1*w1 + x1^2 - x*x1^3 + 2"), [(xvar(1), x - 1, 2 * Poly.variable(wvar(2)))],
         {v: Fraction(k + 2, 3) for k, v in enumerate(VARS)})
def test_ratio_substitution_is_scaled_evaluation(p, targets, point):
    dens = {v: den.evaluate(point) for v, _, den in targets}
    assume(all(d != 0 for d in dens.values()))
    moved = {v: Fraction(num.evaluate(point)) / dens[v] for v, num, _ in targets}
    want = p.evaluate({**point, **moved})
    for v, _, _ in targets:
        want *= dens[v] ** p.degree_in(v)
    assert ratio_substitute(p, targets).evaluate(point) == want


def assert_normal(p: Poly) -> None:
    """Exact coefficients are ints or Fractions with a denominator above 1."""
    for c in p.terms().values():
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), c
    assert not re.search(r"/1\b", str(p))


@given(polys(), st.dictionaries(st.sampled_from(VARS), st.one_of(polys(), FRACTIONS), max_size=3),
       st.lists(st.tuples(st.sampled_from(VARS), polys(), polys()),
                max_size=2, unique_by=lambda t: t[0]))
@example(parse_poly("1/2*x1 - 1/2*x2"), {xvar(1): x, xvar(2): x}, [])
@example(parse_poly("1/2*x1 + 3/2*x2 - 1/3*w1"), {xvar(1): x, xvar(2): x, wvar(1): 3},
         [(xvar(1), x, 2 * one)])
@example(parse_poly("2/3*w3^2 + 1/6*w3 + x"), {wvar(3): Fraction(1, 2) * Poly.variable(wvar(3))}, [])
@example(parse_poly("3/4*x1^2 - 1/6*x1 + 1/2"), {},
         [(xvar(1), Fraction(1, 2) * x - Fraction(2, 3), Fraction(3, 5) * Poly.variable(wvar(1)) + 1),
          (wvar(2), Fraction(5, 2) * one, Fraction(1, 4) * x)])
def test_substituted_coefficients_are_normal(p, mapping, targets):
    assert_normal(p.substitute_many(mapping))
    assert_normal(ratio_substitute(p, targets))
