"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial is a map from monomials to nonzero coefficients.  A monomial is a
sorted tuple of (variable, exponent) pairs; a coefficient is an int or a
Fraction for exact work, or a float/complex in the numeric root pipelines.
Integer-valued Fractions are normalised to int, exact zeros are never stored,
so two polynomials are equal iff their term dictionaries are equal.

Variables come in four kinds with a fixed canonical order:

    x  <  x1 < x2 < ...  <  y1 < y2  <  w1 < w2 < ...

where ``x`` is the collapsed vertex variable of simple polynomials, ``x_i``
the per-vertex variables, ``y_1``/``y_2`` the collective part variables of
bipartite cores, and ``w_i`` the weight of a cover component on i vertices.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence, Union

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


Mono = tuple  # tuple[tuple[Var, int], ...], sorted by Var, exponents > 0

_ONE_MONO: Mono = ()


def _norm_coeff(c: Coeff) -> Coeff:
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def _is_exact(c: Coeff) -> bool:
    return isinstance(c, (int, Fraction))


def _mono_mul(a: Mono, b: Mono) -> Mono:
    """Merge two sorted exponent tuples, adding exponents of shared variables."""
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        va, ea = a[i]
        vb, eb = b[j]
        if va == vb:
            out.append((va, ea + eb))
            i += 1
            j += 1
        elif va < vb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def _mono_degree(m: Mono) -> int:
    return sum(e for _, e in m)


def _mono_sort_key(m: Mono):
    # Descending total degree, then graded-lex on the canonical variable order.
    return (-_mono_degree(m), tuple((v, -e) for v, e in m))


class Poly:
    """Immutable sparse polynomial.  All arithmetic is exact on exact inputs."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Mono, Coeff] | None = None):
        cleaned: dict[Mono, Coeff] = {}
        if terms:
            for mono, coeff in terms.items():
                coeff = _norm_coeff(coeff)
                if coeff != 0:
                    cleaned[mono] = coeff
        self._terms = cleaned

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def one() -> "Poly":
        return Poly({_ONE_MONO: 1})

    @staticmethod
    def const(c: Coeff) -> "Poly":
        return Poly({_ONE_MONO: c})

    @staticmethod
    def variable(v: Var) -> "Poly":
        return Poly({((v, 1),): 1})

    @staticmethod
    def monomial(pairs: Iterable[tuple[Var, int]], coeff: Coeff = 1) -> "Poly":
        mono = tuple(sorted((v, e) for v, e in pairs if e != 0))
        return Poly({mono: coeff})

    @staticmethod
    def from_univariate_coeffs(coeffs: Sequence[Coeff], v: Var = X) -> "Poly":
        """Build a univariate polynomial from descending coefficients."""
        deg = len(coeffs) - 1
        terms: dict[Mono, Coeff] = {}
        for k, c in enumerate(coeffs):
            if c == 0:
                continue
            e = deg - k
            terms[((v, e),) if e else _ONE_MONO] = c
        return Poly(terms)

    # -- inspection ----------------------------------------------------

    def terms(self) -> dict[Mono, Coeff]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def variables(self) -> set[Var]:
        out: set[Var] = set()
        for mono in self._terms:
            for v, _ in mono:
                out.add(v)
        return out

    def degree_in(self, v: Var) -> int:
        deg = 0
        for mono in self._terms:
            for mv, e in mono:
                if mv == v and e > deg:
                    deg = e
        return deg

    def is_exact(self) -> bool:
        return all(_is_exact(c) for c in self._terms.values())

    def constant_value(self) -> Coeff:
        """The value of a constant polynomial; error on any variable term."""
        for mono in self._terms:
            if mono:
                raise ValueError(f"polynomial is not constant: {self}")
        return self._terms.get(_ONE_MONO, 0)

    # -- ring operations -----------------------------------------------

    def __add__(self, other) -> "Poly":
        other = _as_poly(other)
        if not self._terms:
            return other
        if not other._terms:
            return self
        out = dict(self._terms)
        for mono, coeff in other._terms.items():
            c = out.get(mono, 0) + coeff
            c = _norm_coeff(c)
            if c == 0:
                out.pop(mono, None)
            else:
                out[mono] = c
        p = Poly.__new__(Poly)
        p._terms = out
        return p

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        p = Poly.__new__(Poly)
        p._terms = {m: -c for m, c in self._terms.items()}
        return p

    def __sub__(self, other) -> "Poly":
        return self.__add__(-_as_poly(other))

    def __rsub__(self, other) -> "Poly":
        return _as_poly(other).__sub__(self)

    def __mul__(self, other) -> "Poly":
        other = _as_poly(other)
        if not self._terms or not other._terms:
            return Poly.zero()
        out: dict[Mono, Coeff] = {}
        for ma, ca in self._terms.items():
            for mb, cb in other._terms.items():
                mono = _mono_mul(ma, mb)
                c = out.get(mono, 0) + ca * cb
                if c == 0:
                    out.pop(mono, None)
                else:
                    out[mono] = c
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Poly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
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
        for mono, coeff in self._terms.items():
            term = coeff
            for v, e in mono:
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
        buckets: list[dict[Mono, Coeff]] = [dict() for _ in range(deg + 1)]
        for mono, coeff in self._terms.items():
            e = 0
            rest = []
            for v, ev in mono:
                if v == X:
                    e = ev
                else:
                    rest.append((v, ev))
            buckets[deg - e][tuple(rest)] = coeff
        return [Poly(b) for b in buckets]

    def univariate_coeffs(self, v: Var = X) -> list[Coeff]:
        """Descending numeric coefficients; error if any other variable occurs."""
        deg = self.degree_in(v)
        out: list[Coeff] = [0] * (deg + 1)
        for mono, coeff in self._terms.items():
            if len(mono) > 1 or (mono and mono[0][0] != v):
                bad = [str(mv) for mv, _ in mono if mv != v]
                raise ValueError(f"polynomial is not univariate in {v}: contains {bad}")
            e = mono[0][1] if mono else 0
            out[deg - e] = coeff
        return out

    def divide_var_power(self, v: Var, k: int) -> "Poly":
        """Exact division by v**k; error if any term lacks the factor."""
        if k == 0:
            return self
        out: dict[Mono, Coeff] = {}
        for mono, coeff in self._terms.items():
            shifted = []
            found = False
            for mv, e in mono:
                if mv == v:
                    if e < k:
                        raise ValueError(f"term {_format_term(mono, coeff, first=True)} not divisible by {v}^{k}")
                    found = True
                    if e > k:
                        shifted.append((mv, e - k))
                else:
                    shifted.append((mv, e))
            if not found:
                raise ValueError(f"term {_format_term(mono, coeff, first=True)} not divisible by {v}^{k}")
            out[tuple(shifted)] = coeff
        p = Poly.__new__(Poly)
        p._terms = out
        return p

    # -- printing ---------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for i, mono in enumerate(sorted(self._terms, key=_mono_sort_key)):
            parts.append(_format_term(mono, self._terms[mono], first=(i == 0)))
        return " ".join(parts)

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


def _format_term(mono: Mono, coeff: Coeff, first: bool) -> str:
    negative = not isinstance(coeff, complex) and coeff < 0
    mag = -coeff if negative else coeff
    factors = []
    for v, e in mono:
        factors.append(str(v) if e == 1 else f"{v}^{e}")
    if not factors or mag != 1 or not _is_exact(mag):
        factors.insert(0, _format_coeff(mag))
    body = "*".join(factors)
    if first:
        return f"-{body}" if negative else body
    return f"- {body}" if negative else f"+ {body}"


# -- substitution -------------------------------------------------------------


def _substitute(p: Poly, table: Mapping[Var, tuple[Poly, Poly | None]]) -> Poly:
    """p with each v in table replaced by num, or by num/den times
    den**deg_v(p) when den is given.  A term keeps its other variables and is
    multiplied by num**e per plain target, in its own variable order, then by
    num**e and den**(deg - e) per ratio target, in table order."""
    degs = {v: p.degree_in(v) for v, (_, den) in table.items() if den is not None}
    cache: dict[tuple[Var, int, int], Poly] = {}

    def power(v: Var, e: int, side: int) -> Poly:
        key = (v, e, side)
        f = cache.get(key)
        if f is None:
            f = cache[key] = table[v][side] ** e
        return f

    total = Poly.zero()
    for mono, coeff in p._terms.items():
        kept = []
        factors = []
        seen: dict[Var, int] = {}
        for v, e in mono:
            if v not in table:
                kept.append((v, e))
            elif v in degs:
                seen[v] = e
            else:  # the cache lookup of power(v, e, 0), inlined on this hot path
                f = cache.get((v, e, 0))
                factors.append(power(v, e, 0) if f is None else f)
        for v, d in degs.items():
            e = seen.get(v, 0)
            if e:
                factors.append(power(v, e, 0))
            if d - e:
                factors.append(power(v, d - e, 1))
        term = Poly({tuple(kept): coeff})
        for f in factors:
            term = term * f
        total = total + term
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
    for v, _, _ in targets:
        if p.degree_in(v) > 1:
            raise ValueError(f"not multilinear: degree of {v} exceeds 1")
    return ratio_substitute(p, targets)


# -- exact univariate division ----------------------------------------------


def divides(d: Poly, p: Poly) -> tuple[bool, Poly | None]:
    """Exact divisibility test for univariate polynomials in x.

    Returns (True, quotient) when p == d * q exactly, else (False, None).
    """
    if d.is_zero():
        raise ValueError("zero divisor")
    try:
        dc = d.univariate_coeffs(X)
    except ValueError as exc:
        raise ValueError(f"unsupported divisor: {exc}") from exc
    pc = p.univariate_coeffs(X)
    if p.is_zero():
        return True, Poly.zero()
    if len(pc) < len(dc):
        return False, None
    rem = [Fraction(c) if isinstance(c, int) else c for c in pc]
    lead = dc[0]
    qlen = len(pc) - len(dc) + 1
    quot: list[Coeff] = [0] * qlen
    for i in range(qlen):
        q = rem[i] / lead
        quot[i] = q
        if q != 0:
            for j, dj in enumerate(dc):
                rem[i + j] -= q * dj
    if any(c != 0 for c in rem[qlen:]):
        return False, None
    return True, Poly.from_univariate_coeffs(quot)


# -- parsing of the canonical text form ---------------------------------------

_TERM_SPLIT = re.compile(r"(?=[+-])")
_FACTOR = re.compile(r"^(?:(?P<num>-?\d+)(?:/(?P<den>\d+))?|(?P<var>[xyw]\d*)(?:\^(?P<exp>\d+))?)$")


def parse_poly(text: str) -> Poly:
    """Parse the canonical text form produced by str(Poly) (exact coefficients)."""
    compact = text.replace(" ", "")
    if not compact:
        raise ValueError("empty polynomial text")
    if compact == "0":
        return Poly.zero()
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
                val = Fraction(int(m.group("num")), int(m.group("den") or 1))
                coeff = coeff * val
            else:
                name = m.group("var")
                exp = int(m.group("exp") or 1)
                if name == "x":
                    v = X
                elif name[0] == "x":
                    v = xvar(int(name[1:]))
                elif name[0] == "y":
                    v = yvar(int(name[1:]))
                else:
                    v = wvar(int(name[1:]))
                pairs.append((v, exp))
        total = total + Poly.monomial(pairs, coeff)
    return total
