"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial is a map from monomials to nonzero coefficients; a coefficient
is an int or a Fraction for exact work, or a float/complex in the numeric root
pipelines.  Integer-valued Fractions are normalised to int, exact zeros are
never stored, so two polynomials are equal iff their term dictionaries are
equal.

Variables come in four kinds with a fixed canonical order:

    x  <  x1 < x2 < ...  <  y1 < y2  <  w1 < w2 < ...

where ``x`` is the collapsed vertex variable of simple polynomials, ``x_i``
the per-vertex variables, ``y_1``/``y_2`` the collective part variables of
bipartite cores, and ``w_i`` the weight of a cover component on i vertices.

Inside a Poly a monomial is one integer key holding a 32-bit exponent field
per variable: x in slot 0, y_i in slot i, x_i in slot 2i+1 and w_i in slot
2i+2.  Multiplying two monomials adds their keys.  Every exponent stays below
2**31, so such a sum never carries into the next field; a product or a
monomial that reaches 2**31 raises OverflowError.  The canonical order plays
no part in storage; it is used only where terms are printed or shown, in
terms(), whose monomials are sorted tuples of (variable, exponent) pairs, and
for the order in which evaluation and substitution apply a term's variables.

Substitution (substitute_many, ratio_substitute) runs on one common
denominator when the polynomial has Fraction coefficients and every
coefficient involved is exact: it scales them by the lcm of their
denominators to integers and divides the result by it once, so the folds,
sums and products in between run on integers wherever the replacements'
coefficients are integers.  Float and complex coefficients keep their own
rounding order.

Exact division and root multiplicity in x live in factored, on integer
coefficient lists.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache, reduce
from itertools import compress
from math import lcm
from operator import itemgetter, or_
from struct import Struct
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, Union

Coeff = Union[int, Fraction, float, complex]

_KIND_X_SIMPLE = 0
_KIND_X = 1
_KIND_Y = 2
_KIND_W = 3


class Var(NamedTuple):
    """A polynomial variable; tuple order is the canonical variable order."""

    kind: int
    index: int

    def __str__(self) -> str:
        if self.kind == _KIND_X_SIMPLE:
            return "x"
        if self.kind == _KIND_X:
            return f"x{self.index}"
        if self.kind == _KIND_Y:
            return f"y{self.index}"
        return f"w{self.index}"


X = Var(_KIND_X_SIMPLE, 0)


def xvar(i: int) -> Var:
    """Per-vertex variable x_i, i >= 1."""
    if i < 1:
        raise ValueError(f"vertex variable index must be positive, got {i}")
    return Var(_KIND_X, i)


def yvar(i: int) -> Var:
    """Collective part variable y_1 or y_2."""
    if i not in (1, 2):
        raise ValueError(f"part variable index must be 1 or 2, got {i}")
    return Var(_KIND_Y, i)


def wvar(i: int) -> Var:
    """Component-weight variable w_i, i >= 1."""
    if i < 1:
        raise ValueError(f"weight variable index must be positive, got {i}")
    return Var(_KIND_W, i)


Mono = tuple  # public view: tuple[tuple[Var, int], ...], sorted by Var, exponents > 0

_WIDTH = 32
_FIELD = (1 << _WIDTH) - 1
_LIMIT = 1 << (_WIDTH - 1)


def _var(slot: int) -> Var:
    if slot < 3:
        return (X, yvar(1), yvar(2))[slot]
    return xvar(slot // 2) if slot % 2 else wvar(slot // 2 - 1)


@cache
def _shift(v: Var) -> int:
    """Bit offset of v's exponent field."""
    slot = (0, 2 * v.index + 1, v.index, 2 * v.index + 2)[v.kind]
    if slot < 0 or _var(slot) != v:
        raise ValueError(f"not a polynomial variable: {v!r}")
    return _WIDTH * slot


def _key(pairs: Iterable[tuple[Var, int]]) -> int:
    """Packed key of a monomial given as (variable, exponent) pairs."""
    key = 0
    for v, e in pairs:
        if not 0 <= e < _LIMIT:
            raise OverflowError(f"exponent {e} of {v} is outside 0..2**{_WIDTH - 1}-1")
        key += e << _shift(v)
    return key


def _picker(items: Sequence[int]):
    """A function taking the given items of a sequence, as a tuple."""
    if len(items) > 1:
        return itemgetter(*items)
    return lambda row: tuple(row[i] for i in items)  # itemgetter(i) alone gives no tuple


@cache
def _layout(n: int) -> tuple:
    """For n fields: their unpacker, a reordering into canonical variable
    order, the variables in that order, and the top bit of every field."""
    order = sorted(range(n), key=_var)
    return (Struct(f"<{n}I").unpack, _picker(order), tuple(map(_var, order)),
            int.from_bytes(b"\0\0\0\x80" * n, "little"))


def _exponents(keys: Sequence[int]) -> tuple[tuple[Var, ...], list[tuple[int, ...]]]:
    """The variables of the fields the keys use, in canonical order, and
    each key's exponents of them."""
    n = -(-reduce(or_, keys, 0).bit_length() // _WIDTH)
    unpack, reorder, variables, _ = _layout(n)
    return variables, [reorder(unpack(key.to_bytes(4 * n, "little"))) for key in keys]


def _pairs(variables: Sequence, e: tuple[int, ...]) -> Iterator[tuple]:
    return zip(compress(variables, e), compress(e, e))


def _mono(key: int) -> Mono:
    """The sorted (variable, exponent) tuple of a packed key."""
    variables, (e,) = _exponents([key])
    return tuple(_pairs(variables, e))


def _norm_coeff(c: Coeff) -> Coeff:
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def _is_exact(c: Coeff) -> bool:
    return isinstance(c, (int, Fraction))


def _mul(a: dict[int, Coeff], b: dict[int, Coeff]) -> dict[int, Coeff]:
    """Product of two packed term dicts; coefficients are not normalised.
    OverflowError when an exponent reaches 2**31, before it can carry."""
    out: dict[int, Coeff] = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = ka + kb
            c = out.get(key, 0) + ca * cb
            if c == 0:
                out.pop(key, None)
            else:
                out[key] = c
    seen = reduce(or_, out, 0)
    if seen & _layout(-(-seen.bit_length() // _WIDTH))[3]:
        raise OverflowError(f"an exponent reaches 2**{_WIDTH - 1}")
    return out


def _add_into(out: dict[int, Coeff], terms: dict[int, Coeff]) -> None:
    for key, coeff in terms.items():
        c = _norm_coeff(out.get(key, 0) + coeff)
        if c == 0:
            out.pop(key, None)
        else:
            out[key] = c


def _from_keys(terms: Mapping[int, Coeff]) -> "Poly":
    """A Poly from packed keys, dropping zero terms and normalising the rest."""
    p = Poly.__new__(Poly)
    p._terms = {key: _norm_coeff(c) for key, c in terms.items() if c != 0}
    return p


class Poly:
    """Immutable sparse polynomial.  All arithmetic is exact on exact inputs."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Mono, Coeff] | None = None):
        self._terms = _from_keys({_key(mono): c for mono, c in (terms or {}).items()})._terms

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def one() -> "Poly":
        return _from_keys({0: 1})

    @staticmethod
    def const(c: Coeff) -> "Poly":
        return _from_keys({0: c})

    @staticmethod
    def variable(v: Var) -> "Poly":
        return _from_keys({1 << _shift(v): 1})

    @staticmethod
    def monomial(pairs: Iterable[tuple[Var, int]], coeff: Coeff = 1) -> "Poly":
        return _from_keys({_key(pairs): coeff})

    @staticmethod
    def from_univariate_coeffs(coeffs: Sequence[Coeff], v: Var = X) -> "Poly":
        """Build a univariate polynomial from descending coefficients."""
        deg = len(coeffs) - 1
        return _from_keys({_key([(v, deg - k)]): c for k, c in enumerate(coeffs) if c})

    # -- inspection ----------------------------------------------------

    def terms(self) -> dict[Mono, Coeff]:
        variables, exponents = _exponents(list(self._terms))
        return {tuple(_pairs(variables, e)): c for e, c in zip(exponents, self._terms.values())}

    def is_zero(self) -> bool:
        return not self._terms

    def variables(self) -> set[Var]:
        return {v for v, _ in _mono(reduce(or_, self._terms, 0))}

    def degree_in(self, v: Var) -> int:
        shift = _shift(v)
        return max((key >> shift & _FIELD for key in self._terms), default=0)

    def is_exact(self) -> bool:
        return all(_is_exact(c) for c in self._terms.values())

    def constant_value(self) -> Coeff:
        """The value of a constant polynomial; error on any variable term."""
        if any(self._terms):
            raise ValueError(f"polynomial is not constant: {self}")
        return self._terms.get(0, 0)

    # -- ring operations -----------------------------------------------

    def __add__(self, other) -> "Poly":
        other = _as_poly(other)
        if not self._terms:
            return other
        if not other._terms:
            return self
        out = dict(self._terms)
        _add_into(out, other._terms)
        return _from_keys(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _from_keys({key: -c for key, c in self._terms.items()})

    def __sub__(self, other) -> "Poly":
        return self.__add__(-_as_poly(other))

    def __rsub__(self, other) -> "Poly":
        return _as_poly(other).__sub__(self)

    def __mul__(self, other) -> "Poly":
        other = _as_poly(other)
        if not self._terms or not other._terms:
            return Poly.zero()
        return _from_keys(_mul(self._terms, other._terms))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        if n == 0:
            return Poly.one()
        base = self
        while not n & 1:
            base = base * base
            n >>= 1
        result = base
        while n := n >> 1:
            base = base * base
            if n & 1:
                result = result * base
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction, float, complex)):
            return self._terms == Poly.const(other)._terms
        return NotImplemented

    __hash__ = None

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- substitution and evaluation ------------------------------------

    def substitute(self, v: Var, replacement: "Poly | Coeff") -> "Poly":
        """Replace every occurrence of v by the given polynomial, re-expanded."""
        return self.substitute_many({v: replacement})

    def substitute_many(self, mapping: Mapping[Var, "Poly | Coeff"]) -> "Poly":
        """Simultaneously replace several variables (values may be constants)."""
        if not mapping:
            return self
        return _substitute(self, {v: (_as_poly(q), None) for v, q in mapping.items()})

    def evaluate(self, assignment: Mapping[Var, Coeff]) -> Coeff:
        """Evaluate at a point; exact when all inputs are exact."""
        total: Coeff = 0
        for key, coeff in self._terms.items():
            term = coeff
            for v, e in _mono(key):
                if v not in assignment:
                    raise ValueError(f"no value assigned to variable {v}")
                term = term * assignment[v] ** e
            total = total + term
        return _norm_coeff(total)

    # -- univariate views ------------------------------------------------

    def coeffs_in_x(self) -> list["Poly"]:
        """Coefficients of descending powers of x; the rest stays symbolic.

        The polynomial may contain w variables in the coefficients but no
        other vertex-like variable.
        """
        for v in self.variables():
            if v.kind in (_KIND_X, _KIND_Y):
                raise ValueError(f"polynomial has vertex variable {v}, not univariate in x")
        deg = self.degree_in(X)
        buckets: list[dict[int, Coeff]] = [dict() for _ in range(deg + 1)]
        for key, coeff in self._terms.items():
            e = key & _FIELD
            buckets[deg - e][key - e] = coeff
        return [_from_keys(b) for b in buckets]

    def univariate_coeffs(self, v: Var = X) -> list[Coeff]:
        """Descending numeric coefficients; error if any other variable occurs."""
        shift = _shift(v)
        deg = self.degree_in(v)
        out: list[Coeff] = [0] * (deg + 1)
        for key, coeff in self._terms.items():
            e = key >> shift & _FIELD
            if key != e << shift:
                bad = [str(mv) for mv, _ in _mono(key) if mv != v]
                raise ValueError(f"polynomial is not univariate in {v}: contains {bad}")
            out[deg - e] = coeff
        return out

    # -- printing ---------------------------------------------------------

    def __str__(self) -> str:
        variables, exponents = _exponents(list(self._terms))
        return _format_terms([str(v) for v in variables], exponents, self._terms.values())

    def __repr__(self) -> str:
        return f"Poly({self})"


def _as_poly(value) -> Poly:
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction, float, complex)):
        return Poly.const(value)
    raise TypeError(f"cannot interpret {value!r} as a polynomial")


# -- coefficient and term formatting --------------------------------------


def _format_coeff(c: Coeff) -> str:
    if isinstance(c, int):
        return str(c)
    if isinstance(c, Fraction):
        return f"{c.numerator}/{c.denominator}"
    if isinstance(c, complex):
        return f"({c.real:.12g}{c.imag:+.12g}j)"
    return f"{c:.12g}"


def _format_terms(names: Sequence[str], exponents: Sequence[tuple[int, ...]],
                  coeffs: Iterable[Coeff]) -> str:
    """The text of str(Poly), from the names of the variables in canonical
    order and each term's exponents of them."""
    if not exponents:
        return "0"
    # descending total degree, then graded-lex on the canonical variable order
    rows = sorted(zip(exponents, coeffs), key=lambda r: (sum(r[0]), r[0]), reverse=True)
    return " ".join(_format_term(_pairs(names, e), c, first=(i == 0)) for i, (e, c) in enumerate(rows))


def _format_term(mono: Iterable[tuple[Var | str, int]], coeff: Coeff, first: bool) -> str:
    negative = not isinstance(coeff, complex) and coeff < 0
    mag = -coeff if negative else coeff
    factors = [str(v) if e == 1 else f"{v}^{e}" for v, e in mono]
    if not factors or mag != 1 or not _is_exact(mag):
        factors.insert(0, _format_coeff(mag))
    body = "*".join(factors)
    if first:
        return f"-{body}" if negative else body
    return f"- {body}" if negative else f"+ {body}"


# -- substitution -------------------------------------------------------------


def _substitute(p: Poly, table: Mapping[Var, tuple[Poly, Poly | None]]) -> Poly:
    """p with every v in table replaced at once by num, or by num/den times
    den**deg_v(p) when den is given.

    A plain target whose num has at most one term (a constant, zero, or a
    monomial such as x, y_k, x_g or w/2) is folded: a term with v**e adds e
    times num's key to its kept key, checked like a product so that no
    exponent reaches 2**31, and multiplies its coefficient by num's
    coefficient**e.  A term is dropped as soon as its coefficient is 0.
    Every other plain target, and every ratio target, is expanded: the
    folded terms are summed in groups by their exponents of the expanded
    targets, and each group's sum is multiplied once by num**e per plain
    expanded target, in canonical variable order, then by num**e and
    den**(deg - e) per ratio target, in table order.

    Coefficients are combined in this order: a term's coefficient times the
    folded factors in canonical variable order; the folded terms summed per
    group in p's term order; each group's sum times its powers; the groups
    added up in the order their first terms come in p.  Exact coefficients
    give the same result in any order; float ones, which reach here from
    factor.spectral_product_from_loops, round in this order.

    When p has a Fraction coefficient and every coefficient of p and of the
    replacements is exact, the passes run on one common denominator: p's
    coefficients are scaled by the lcm L of their denominators to integers,
    and each result coefficient is divided by L once at the end.  This is
    exact because the result is linear in p's coefficients, and where the
    replacements have integer coefficients the passes then multiply and add
    integers, with no gcd per step (oracle.circuit_poly scales by D**p for
    the same reason).
    """
    terms, scale = p._terms, 1
    kinds = set(map(type, terms.values()))
    if Fraction in kinds and kinds <= {int, Fraction} and all(
            q.is_exact() for pair in table.values() for q in pair if q is not None):
        scale = lcm(*{c.denominator for c in terms.values()})
        terms = {key: c.numerator * (scale // c.denominator) for key, c in terms.items()}
    present = reduce(or_, terms, 0)
    folds, expanded, ratios = [], [], []
    for v, (num, den) in table.items():
        if present >> _shift(v) & _FIELD:
            (ratios if den is not None else folds if len(num._terms) < 2 else expanded).append(v)
    folds.sort()
    expanded.sort()
    expanded += ratios
    degs = {v: p.degree_in(v) for v in ratios}
    grouping = sum(_FIELD << _shift(v) for v in expanded)
    keep = ~sum(_FIELD << _shift(v) for v in folds + expanded)
    reach = reduce(or_, (key for v in folds for key in table[v][0]._terms), present)
    top = _layout(-(-reach.bit_length() // _WIDTH))[3]
    folded: list[dict[int, tuple[int, Coeff]]] = [{} for _ in folds]  # e -> key to add, factor

    def fold(i: int, e: int) -> tuple[int, Coeff]:
        ((key, coeff),) = table[folds[i]][0]._terms.items() or [(0, 0)]
        if e > 1 and e * max(_exponents([key])[1][0], default=0) >= _LIMIT:
            raise OverflowError(f"an exponent reaches 2**{_WIDTH - 1}")
        folded[i][e] = e * key, coeff ** e
        return folded[i][e]

    n = -(-present.bit_length() // _WIDTH)
    unpack, at = _layout(n)[0], _picker([_shift(v) // _WIDTH for v in folds])
    indices = range(len(folds))
    groups: dict[int, dict[int, Coeff]] = {}
    for key, coeff in terms.items():
        kept = key & keep
        exps = at(unpack(key.to_bytes(4 * n, "little")))
        for i, e in zip(compress(indices, exps), compress(exps, exps)):
            add, c = folded[i].get(e) or fold(i, e)
            kept += add
            if kept & top:
                raise OverflowError(f"an exponent reaches 2**{_WIDTH - 1}")
            coeff = coeff * c
            if coeff == 0:
                break
        else:
            group = groups.setdefault(key & grouping, {})
            c = group.get(kept, 0) + coeff
            if c == 0:
                group.pop(kept, None)
            else:
                group[kept] = c

    powers: dict[tuple[Var, int, int], dict[int, Coeff]] = {}

    def power(v: Var, e: int, side: int) -> dict[int, Coeff]:
        if (v, e, side) not in powers:
            powers[v, e, side] = (table[v][side] ** e)._terms
        return powers[v, e, side]

    total: dict[int, Coeff] = {}
    for shared, group in groups.items():
        for v in expanded:
            e = shared >> _shift(v) & _FIELD
            if e:
                group = _mul(group, power(v, e, 0))
            if v in degs and degs[v] - e:
                group = _mul(group, power(v, degs[v] - e, 1))
        if total:
            _add_into(total, group)
        else:
            total = group
    if scale > 1:
        total = {key: Fraction(c, scale) for key, c in total.items()}
    return _from_keys(total)


def ratio_substitute(p: Poly, targets: Sequence[tuple[Var, Poly, Poly]]) -> Poly:
    """Substitute v -> num/den for each target and clear all denominators.

    Returns prod_i den_i**deg_i(p) * p(v_i -> num_i/den_i) as a genuine
    polynomial: a term with v_i**e picks up num_i**e * den_i**(deg_i - e).
    """
    if not targets:
        return p
    table = {v: (num, den) for v, num, den in targets}
    if len(table) != len(targets):
        raise ValueError("duplicate target variable")
    return _substitute(p, table)


def multilinear_ratio_substitute(p: Poly, targets: Sequence[tuple[Var, Poly, Poly]]) -> Poly:
    """Denominator-clearing substitution for variables of degree at most one.

    Every monomial contributes num_i for each present target variable and
    den_i for each absent one, so the result is prod_i den_i * p(v_i -> num_i/den_i)
    with no fractions ever formed.
    """
    for v, _, _ in targets:
        if p.degree_in(v) > 1:
            raise ValueError(f"not multilinear: degree of {v} exceeds 1")
    return ratio_substitute(p, targets)


# -- parsing of the canonical text form ---------------------------------------

_TERM_SPLIT = re.compile(r"(?=[+-])")
_FACTOR = re.compile(r"^(?:(?P<num>-?\d+)(?:/(?P<den>\d+))?|(?P<var>[xyw]\d*)(?:\^(?P<exp>\d+))?)$")


def parse_poly(text: str) -> Poly:
    """Parse the canonical text form produced by str(Poly) (exact coefficients)."""
    compact = text.replace(" ", "")
    if not compact:
        raise ValueError("empty polynomial text")
    total = Poly.zero()
    for chunk in _TERM_SPLIT.split(compact):
        if not chunk:
            continue
        sign = 1
        if chunk[0] == "+":
            chunk = chunk[1:]
        elif chunk[0] == "-":
            sign = -1
            chunk = chunk[1:]
        if not chunk:
            raise ValueError(f"dangling sign in {text!r}")
        coeff: Coeff = sign
        pairs: list[tuple[Var, int]] = []
        for factor in chunk.split("*"):
            m = _FACTOR.match(factor)
            if not m:
                raise ValueError(f"cannot parse factor {factor!r}")
            if m.group("num") is not None:
                coeff *= Fraction(int(m.group("num")), int(m.group("den") or 1))
            else:
                name = m.group("var")
                v = X if name == "x" else {"x": xvar, "y": yvar, "w": wvar}[name[0]](int(name[1:]))
                pairs.append((v, int(m.group("exp") or 1)))
        total = total + Poly.monomial(pairs, coeff)
    return total
