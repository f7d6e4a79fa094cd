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

Substitution (substitute_many, ratio_substitute) folds every one-term
replacement into each term's key and coefficient, and expands the other
targets by a nested Horner's rule: the terms are split by their exponent of
one target, the rest are substituted into each part, and the parts are
combined as S * num + part * den**k, so each product is formed once per part
and shared by all its terms.  Every product and sum of term dicts goes
through one multiply-accumulate kernel, out += a * b, which adds each
product into out as it is formed.  It runs on one common denominator when the
polynomial has Fraction coefficients and every coefficient involved is
exact: it scales them by the lcm of their denominators to integers and
divides the result by it once, so the folds, sums and products in between
run on integers wherever the replacements' coefficients are integers.  Float
and complex coefficients are not scaled; they round in the order that
_substitute states.

Exact division and root multiplicity in x live in factored, on integer
coefficient lists.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache, reduce
from itertools import compress, repeat
from math import lcm
from operator import getitem, itemgetter, or_
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


def _overflows(seen: int) -> bool:
    """Whether some field of seen reaches 2**31, its top bit."""
    return bool(seen & _layout(-(-seen.bit_length() // _WIDTH))[3])


_UNIT = {0: 1}


def _mul_add(a: Mapping[int, Coeff], b: Mapping[int, Coeff],
             out: dict[int, Coeff] | None = None) -> dict[int, Coeff]:
    """out + a * b on packed term dicts, in one pass: out is updated in
    place and returned, or with no out a new dict is.

    a's terms are the outer loop.  Without out, a's first term makes it as a
    shifted and scaled copy of b, so a product by a one-term a is one
    comprehension; every other product is added into out as it is formed.
    The unit term (key 0, int coefficient 1) adds b's coefficients as they
    are.  out holds no zero on entry; zeros, from cancellation or a product
    that underflows, are dropped once after the loops.  Coefficients are not
    normalised.  OverflowError when an exponent reaches 2**31, checked once
    after the loops, before any field can carry: a field of a written key is
    at most that field of a's ORed keys plus b's, so only when such a sum
    reaches 2**31 are out's keys read, and a constant a writes only b's keys.
    """
    items = iter(a.items())
    if out is None:
        for ka, ca in items:  # a's first term only
            unit = not ka and ca == 1 and type(ca) is int
            out = dict(b) if unit else {kb + ka: ca * cb for kb, cb in b.items()}
            break
        else:
            return {}
    get = out.get
    for ka, ca in items:
        if not ka and ca == 1 and type(ca) is int:
            for kb, cb in b.items():
                out[kb] = get(kb, 0) + cb
        else:
            for kb, cb in b.items():
                key = ka + kb
                out[key] = get(key, 0) + ca * cb
    if 0 in out.values():
        for key in [key for key, c in out.items() if c == 0]:
            del out[key]
    shift = reduce(or_, a, 0)
    if shift and _overflows(shift + reduce(or_, b, 0)) and _overflows(reduce(or_, out, 0)):
        raise OverflowError(f"an exponent reaches 2**{_WIDTH - 1}")
    return out


def _from_keys(terms: dict[int, Coeff]) -> "Poly":
    """A Poly holding the packed terms, zero terms dropped and the rest
    normalised.  When no coefficient is a Fraction or zero, which two C-level
    scans tell, the dict itself is kept: the caller hands it over."""
    values = terms.values()
    if Fraction in set(map(type, values)) or 0 in values:
        terms = {key: _norm_coeff(c) for key, c in terms.items() if c != 0}
    p = Poly.__new__(Poly)
    p._terms = terms
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
        deg, shift = len(coeffs) - 1, _shift(v)
        if deg >= _LIMIT:
            raise OverflowError(f"exponent {deg} of {v} is outside 0..2**{_WIDTH - 1}-1")
        return _from_keys({(deg - k) << shift: c for k, c in enumerate(coeffs) if c})

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
        return _from_keys(_mul_add(_UNIT, other._terms, dict(self._terms)))

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
        a, b = self._terms, other._terms
        if len(b) == 1:  # a one-term factor outside: one scaled copy of the other
            a, b = b, a
        return _from_keys(_mul_add(a, b))

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
        """Descending numeric coefficients; error if any other variable occurs,
        naming those of the offending term with the least key."""
        shift = _shift(v)
        deg = self.degree_in(v)
        out: list[Coeff] = [0] * (deg + 1)
        for key, coeff in self._terms.items():
            e = key >> shift & _FIELD
            if key != e << shift:
                key = min(k for k in self._terms if k != (k >> shift & _FIELD) << shift)
                bad = [str(mv) for mv, _ in _mono(key) if mv != v]
                raise ValueError(f"polynomial is not univariate in {v}: contains {bad}")
            out[deg - e] = coeff
        return out

    # -- printing ---------------------------------------------------------

    def __str__(self) -> str:
        return _write(self._terms)[0]

    def __repr__(self) -> str:
        return f"Poly({self})"


def _as_poly(value) -> Poly:
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction, float, complex)):
        return Poly.const(value)
    raise TypeError(f"cannot interpret {value!r} as a polynomial")


# -- coefficient and term formatting --------------------------------------


def _format_numeric(c: float | complex) -> str:
    """The text of a float or complex coefficient."""
    if isinstance(c, complex):
        return f"({c.real:.12g}{c.imag:+.12g}j)"
    return f"{c:.12g}"


class _Fragments(dict):
    """Exponent -> make(v, exponent) for one variable v, made on first use."""

    __slots__ = ("make", "v")

    def __init__(self, make, v: Var):
        self.make, self.v = make, v

    def __missing__(self, e: int):
        self[e] = made = self.make(self.v, e)
        return made


def _factor_text(v: Var, e: int) -> str:
    return str(v) if e == 1 else f"{v}^{e}"


def _factor_texts(v: Var, e: int) -> tuple[str, str, str]:
    """The factor's text, its line of a JSON monomial and its part of the
    JSON sort key."""
    return _factor_text(v, e), f'\n        "{v}": {e}', f"{v.kind}{v.index}\x01{e}\x01"


def _write(terms: Mapping[int, Coeff], with_json: bool = False) -> tuple[str, str]:
    """The text of str(Poly) of the packed terms and, with_json, the "terms"
    array of `rootedpoly poly --format json` in the json.dumps(..., indent=2)
    layout ("" without), both from one pass over the terms.

    Each term's fragments are made once: its coefficient's text, read off its
    numerator and denominator (or its float formatting) with no arithmetic on
    it, its sign, and per factor the text ("x3^2"), the JSON monomial line and
    the JSON sort key, each cached per variable and exponent.

    The text lists the terms by descending total degree, then graded-lex on
    the canonical variable order.  A term is its sign ("-" first, "- " or
    "+ " after), its coefficient's magnitude and its factors, joined by "*";
    an exact coefficient of magnitude 1 is left out unless the term is a
    constant, while a float or complex one is always written.

    The JSON array orders the terms by the text of their monomial tuples,
    str(((Var(kind, index), e), ...)), which tests/data/poly_outputs.json
    pins.  Factor by factor, that text compares the kind, then the index and
    the exponent as decimal strings (so x10 comes before x2).  Where one
    monomial's factors begin the other's, one of two or more factors comes
    first, one of a single factor comes last, and the constant comes after
    every other term.  The sort key spells this out as one string: per factor
    the kind digit, the index and the exponent, each ended by "\\x01", which
    sorts below every digit, then "\\x00" after two or more factors and
    "\\x7f" after one; the constant's key is "\\x7f".
    """
    if not terms:
        return "0", "[]"
    variables, exponents = _exponents(list(terms))
    tables = [_Fragments(_factor_texts if with_json else _factor_text, v) for v in variables]
    # per term, its factors' fragments: the texts joined by "*", or with_json
    # an iterator of (text, line, key) per factor
    fragments = map(map, repeat(getitem), map(compress, repeat(tables), exponents),
                    map(compress, exponents, exponents))
    if not with_json:
        fragments = map("*".join, fragments)
    rows, entries = [], []
    for c, factors in zip(terms.values(), fragments):
        kind = type(c)
        if kind is int:
            coeff = str(c)
            minus = coeff[0] == "-"
        elif kind is Fraction:
            coeff = f"{c.numerator}/{c.denominator}"
            minus = coeff[0] == "-"
        else:
            coeff = _format_numeric(c)
            minus = kind is not complex and c < 0
        if with_json:
            texts, lines, keys = tuple(zip(*factors)) or ((), (), ())
            factors = "*".join(texts)
            mono = "{" + ",".join(lines) + "\n      }" if lines else "{}"
            entries.append(("".join(keys) + ("\x00" if len(keys) > 1 else "\x7f"),
                            f'\n    {{\n      "coeff": "{coeff}",\n      "monomial": {mono}\n    }}'))
        mag = coeff[1:] if minus else coeff
        if not factors:
            factors = mag
        elif mag != "1" or kind not in (int, Fraction):
            factors = mag + "*" + factors
        rows.append(("- " if minus else "+ ") + factors)
    rows = sorted(zip(map(sum, exponents), exponents, rows), reverse=True)
    first = rows[0][2]
    text = " ".join([first[2:] if first[0] == "+" else "-" + first[2:], *map(itemgetter(2), rows[1:])])
    if not with_json:
        return text, ""
    entries.sort()
    return text, "[" + ",".join(map(itemgetter(1), entries)) + "\n  ]"


# -- substitution -------------------------------------------------------------


def _substitute(p: Poly, table: Mapping[Var, tuple[Poly, Poly | None]]) -> Poly:
    """p with every v in table replaced at once by num, or by num/den times
    den**deg_v(p) when den is given.

    A plain target whose num has at most one term (a constant, zero, or a
    monomial such as x, y_k, x_g or w/2) is folded: a term with v**e adds e
    times num's key to its kept key, checked like a product so that no
    exponent reaches 2**31, and multiplies its coefficient by num's
    coefficient**e.  A term is dropped as soon as its coefficient is 0.
    Every other plain target, and every ratio target, is expanded, by a
    nested Horner's rule over these targets: the plain ones in canonical
    variable order, then the ratio ones in table order.  The folded terms
    are split by their exponent e of the first target, the remaining targets
    are substituted into each part, and the parts are combined from the
    highest e down as S <- S * num + part_e * den**(deg - e), with deg the
    target's degree in p and den**0 taken as 1 (a plain target has no den
    and deg - e is 0).  A target of degree 1 splits the terms on one bit, so
    each product of a part's sum is formed once and shared by its terms.

    Coefficients are combined in this order: a term's coefficient times the
    folded factors in canonical variable order, the folded terms summed in
    p's term order; then, per expanded target and part, num times S is formed
    as a new sum, num's terms in the outer loop, and den's power times the
    part is added into it product by product, as it is formed, the power's
    terms in the outer loop (the part itself when there is no power).
    Exact coefficients give the same result in any order.  Float and complex
    ones, which reach here through oracle.specialize on graphs with float
    weights and through library calls, round in this order.

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
    lift = 0
    if folds:
        # the expanded targets' exponents move to fields above all that the
        # folded keys reach, where no replacement's key adds to them
        fields = sum(_FIELD << _shift(v) for v in expanded)
        keep = ~sum(_FIELD << _shift(v) for v in folds) & ~fields
        reach = reduce(or_, (key for v in folds for key in table[v][0]._terms), present)
        reached = -(-reach.bit_length() // _WIDTH)
        top, lift = _layout(reached)[3], _WIDTH * reached
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
        out: dict[int, Coeff] = {}
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
                kept += (key & fields) << lift
                c = out.get(kept, 0) + coeff
                if c == 0:
                    out.pop(kept, None)
                else:
                    out[kept] = c
        terms = out
    targets = []
    for v in expanded:
        num, den = table[v]
        # exponents that OR to 1 are all 0 or 1, so no pass over the terms is needed
        deg = 1 if present >> _shift(v) & _FIELD == 1 else p.degree_in(v)
        targets.append((_shift(v) + lift, num._terms, None if den is None else [den._terms], deg))
    total = _horner(terms, targets)
    if scale > 1:
        total = {key: Fraction(c, scale) for key, c in total.items()}
    return _from_keys(total)


def _horner(terms: dict[int, Coeff], targets: Sequence[tuple]) -> dict[int, Coeff]:
    """The terms with each target (shift, num, den powers or None, deg)
    substituted, the first outermost; a term's exponent of a target is the
    field at its shift.  den powers is [den, den**2, ...], extended here as
    needed and shared by every part.  Each step makes num * S the only new
    dict and accumulates den's power times the part into it.  The result is
    a new dict whenever targets is not empty."""
    if not targets:
        return terms
    (shift, num, den_powers, deg), rest = targets[0], targets[1:]
    if deg == 1:
        bit = 1 << shift
        parts = [{key: c for key, c in terms.items() if not key & bit},
                 {key - bit: c for key, c in terms.items() if key & bit}]
    else:
        parts = [{} for _ in range(deg + 1)]
        for key, c in terms.items():
            e = key >> shift & _FIELD
            parts[e][key - (e << shift)] = c
    total: dict[int, Coeff] = {}
    for e in range(deg, -1, -1):
        if total:
            total = _mul_add(num, total)
        if not parts[e]:
            continue
        part = _horner(parts[e], rest)  # parts[e] itself or a new dict: total may take it
        if den_powers is None or e == deg:
            total = _mul_add(_UNIT, part, total) if total else part
        else:
            while len(den_powers) < deg - e:
                den_powers.append(_mul_add(den_powers[-1], den_powers[0]))
            _mul_add(den_powers[deg - e - 1], part, total)
    return total


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
    present = reduce(or_, p._terms, 0)
    for v, _, _ in targets:
        if present >> _shift(v) & _FIELD > 1:  # some exponent of v is above 1
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
