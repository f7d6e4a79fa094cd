"""Polynomials kept as exact products over a coprime base.

A Factored value is a rational constant times prod f_i**m_i, where the f_i
are square-free, pairwise coprime, primitive integer polynomials with a
positive leading coefficient.  Their roots are therefore distinct within one
factor and across factors, and m_i is the exact multiplicity of each.

CoprimeBase holds such a list of polynomials and refines it with exact gcds
whenever a new polynomial arrives, splitting an element when the newcomer
divides part of it, so that several products can be kept over one shared
base (Bernstein, "Factoring into coprimes in essentially linear time",
J. Algorithms, 2005).  The base holds polynomials in x alone, as integer
coefficient lists, highest degree first, and all its arithmetic runs on
plain ints, so that CPython's big integers do the work: gcds by the
heuristic of Char, Geddes and Gonnet, which reads the gcd off the gcd of two
integer values, exact quotients by checked long division, and the
square-free test of what a new polynomial leaves over by its gcd with its
derivative.  Only a leftover with a repeated root needs the full square-free
split of _square_free.  Polynomials with symbolic weights have no place
here; the dendrimer tier recursion multiplies them out as Poly values.

The same integer lists carry the library's other exact work in x: the
divisibility test divides and the root multiplicity multiplicity_at, each a
checked division of primitive integer lists (by Gauss's lemma, a division
over the rationals is one over the integers of the primitive parts; Knuth,
TAOCP vol. 2, 4.6.1).

Expanding a univariate product never multiplies two big polynomials.  With
P = prod g_i**m_i, D = prod g_i and N = sum m_i g_i' D / g_i, the logarithmic
derivative gives D P' = N P, so each coefficient of P follows from the s
before it, s = deg D (J.C.P. Miller's recurrence for powers of power series;
Knuth, TAOCP vol. 2, 4.7), as one weighted sum over that window with one
small weight per entry.  When every g_i is a polynomial h_i(x**d), as the
factors of bipartite graphs and of matching polynomials are in x**2, the
recurrence runs on the h_i and its coefficients are spread back with stride
d, so a product of degree n costs about (n/d) * (s/d) products of a big
integer by a small one.  Dendrimer polynomials have few small factors
raised to high powers, so s is tiny against n there; when s is close to n,
as for a high-degree product of square-free factors, the cost is quadratic
and a product tree would be faster.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul, sub
from typing import Sequence

import sympy

from .poly import Poly, X, _norm_coeff


def _to_coeffs(p: Poly) -> tuple[Fraction, list[int]]:
    """p as scale * F with F an integer coefficient list in x, highest degree first."""
    if not p.is_exact():
        raise ValueError("exact factorization needs exact coefficients")
    coeffs = p.univariate_coeffs(X)
    den = math.lcm(*(c.denominator for c in coeffs))
    return Fraction(1, den), [int(c * den) for c in coeffs]


def _primitive(f: list[int]) -> list[int]:
    """A nonzero list divided by its content, with a positive leading coefficient."""
    c = math.gcd(*f) if f[0] > 0 else -math.gcd(*f)
    return f if c == 1 else [a // c for a in f]


def _prem(f: list[int], g: list[int]) -> list[int]:
    """A multiple of the remainder of f by g by a power of g's leading
    coefficient, as a list with no leading zeros; [] when g divides f over
    the rationals.  A step multiplies by that coefficient only when it does
    not divide the leading term, so the multiple is positive when the
    coefficient is, which the Sturm count in spectra relies on."""
    r, n, lead = f, len(g), g[0]
    while len(r) >= n:
        q, rem = divmod(r[0], lead)
        if rem:
            r, q = [lead * a for a in r], r[0]
        r = [a - q * b for a, b in zip(r[1:n], g[1:])] + r[n:]
        k = 0
        while k < len(r) and not r[k]:
            k += 1
        if k:
            r = r[k:]
    return r


def _gcd(f: list[int], g: list[int]) -> list[int]:
    """gcd of two nonzero integer lists, with a positive leading coefficient,
    by the heuristic gcd of Char, Geddes and Gonnet (GCDHEU, J. Symbolic
    Comput. 7, 1989).

    With the content taken out, both primitive lists are evaluated at an
    integer xi > 2 min(|f|_inf, |g|_inf), and the symmetric xi-adic digits of
    gcd(f(xi), g(xi)) give a candidate, kept as its primitive part only if it
    divides both lists; otherwise xi grows and the step repeats.  An accepted
    candidate C is the gcd G: C divides G, and a proper cofactor d = G / C
    would divide both lists, so by the Cauchy root bound its roots lie below
    xi / 2 in modulus and |d(xi)| > xi / 2, which is at least the content of
    the digits, although d(xi) divides that content.  The loop ends: gcd(f(xi),
    g(xi)) = k G(xi) with k dividing Res(f / G, g / G), so once xi > 2 k |G|_inf
    the digits are exactly k G.
    """
    content = math.gcd(math.gcd(*f), math.gcd(*g))
    f, g = _primitive(f), _primitive(g)
    xi = 2 * min(max(map(abs, f)), max(map(abs, g))) + 29
    while True:
        h, digits = math.gcd(_horner(f, xi), _horner(g, xi)), []
        while h:
            d = h % xi
            if d > xi // 2:
                d -= xi
            digits.append(d)
            h = (h - d) // xi
        candidate = _primitive(digits[::-1])
        try:
            if len(candidate) > 1:  # a constant divides both
                _exquo(f, candidate)
                _exquo(g, candidate)
        except ArithmeticError:
            xi = 73794 * xi * math.isqrt(math.isqrt(xi)) // 27011
        else:
            return [content * a for a in candidate]


def _horner(f: list, z):
    """The value at z of a coefficient list, highest degree first."""
    acc = 0
    for a in f:
        acc = acc * z + a
    return acc


def _exquo(f: list[int], g: list[int]) -> list[int]:
    """f / g for nonzero integer lists; ArithmeticError unless g divides f."""
    r, n, lead = list(f), len(g), g[0]
    q = []
    for k in range(len(f) - n + 1):
        c, rem = divmod(r[k], lead)
        if rem:
            raise ArithmeticError("inexact division of integer polynomials")
        q.append(c)
        for j in range(1, n):
            r[k + j] -= c * g[j]
    if not q or any(r[len(q):]):
        raise ArithmeticError("inexact division of integer polynomials")
    return q


def divides(d: Poly, p: Poly) -> tuple[bool, Poly | None]:
    """Exact divisibility of polynomials in x: (True, p / d) when p == d * q
    exactly, else (False, None).

    By Gauss's lemma d divides p over the rationals exactly when the
    primitive part of d's integer list divides p's integer list, so the test
    is one checked integer division, and the quotient is scaled by the ratio
    of the two scales and d's content.  Both must be exact and in x alone;
    anything else raises ValueError, for d with "unsupported divisor".
    """
    if d.is_zero():
        raise ValueError("zero divisor")
    try:
        d_scale, f = _to_coeffs(d)
    except ValueError as exc:
        raise ValueError(f"unsupported divisor: {exc}") from exc
    if p.is_zero():
        return True, Poly.zero()
    p_scale, h = _to_coeffs(p)
    g = _primitive(f)
    try:
        q = _exquo(h, g)
    except ArithmeticError:
        return False, None
    ratio = p_scale / (d_scale * (f[0] // g[0]))
    return True, Poly.from_univariate_coeffs([ratio * c for c in q])


def multiplicity_at(p: Poly, lam: int | Fraction) -> int:
    """Largest k with (x - lam)**k dividing p, by repeated checked division
    of p's integer list by den * x - num for lam = num / den."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    _, f = _to_coeffs(p)
    lam = Fraction(lam)
    root, count = [lam.denominator, -lam.numerator], 0
    try:
        while True:
            f = _exquo(f, root)
            count += 1
    except ArithmeticError:
        return count


def _square_free(f: list[int]) -> list[tuple[list[int], int]]:
    """The square-free split of a non-constant integer list, as (primitive
    list with a positive leading coefficient, multiplicity) pairs.  A list
    coprime to its derivative is square-free and its primitive part is the
    one factor; only a list that is not goes to sympy's sqf_list."""
    n = len(f) - 1
    if len(_gcd(f, [a * (n - i) for i, a in enumerate(f[:-1])])) == 1:
        return [(_primitive(f), 1)]
    split = sympy.Poly.from_list(f, sympy.Symbol("x"), domain=sympy.ZZ).sqf_list()[1]
    return [([int(c) for c in g.all_coeffs()], k) for g, k in split]


def _times(a: list[int], b: list[int]) -> list[int]:
    """Product of two ascending coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def _power_product(factors: Sequence[tuple[list[int], int]]) -> list[int]:
    """Ascending coefficients of prod g**m over ascending integer
    coefficient lists g with g(0) != 0, by the recurrence D P' = N P with
    D = prod g (coefficients d_t) and N = sum m g' D / g (coefficients n_t).

    Comparing the coefficients of x**(j-1) gives
    d_0 j p_j = sum_{t=1..s} w_t(j) p_{j-t} with w_t(j) = n_{t-1} + (t - j) d_t.
    The small weights drop by d_t from one j to the next, so each coefficient
    costs s products of a big integer by a small one.  The division is exact,
    and a remainder raises ArithmeticError rather than being dropped.
    """
    den = [1]
    for g, _ in factors:
        den = _times(den, g)
    s = len(den) - 1
    num = [0] * s
    for i, (g, m) in enumerate(factors):
        if len(g) < 2:
            continue
        term = [m * k * c for k, c in enumerate(g)][1:]
        for k, (h, _) in enumerate(factors):
            if k != i:
                term = _times(term, h)
        num = [a + b for a, b in zip(num, term)]
    degree = sum((len(g) - 1) * m for g, m in factors)
    # the window p[j:j + s] holds p_{j-s} .. p_{j-1}, so the weights run t = s .. 1;
    # they start at w_t(0) and step to w_t(j) before the sum for p_j
    weights = [num[t - 1] + t * den[t] for t in range(s, 0, -1)]
    den_desc = den[s:0:-1]
    p = [0] * s + [math.prod(g[0] ** m for g, m in factors)]
    for j in range(1, degree + 1):
        weights = list(map(sub, weights, den_desc))
        q, r = divmod(sum(map(mul, weights, p[j:j + s])), den[0] * j)
        if r:
            raise ArithmeticError(f"inexact division in the power recurrence at x^{j}")
        p.append(q)
    return p[s:]


@dataclass(frozen=True)
class Factored:
    """const * prod f**m over square-free, pairwise coprime factors f in x,
    each an integer coefficient list, highest degree first."""

    const: int | Fraction
    factors: tuple[tuple[list[int], int], ...]

    @staticmethod
    def from_poly(p: Poly) -> "Factored":
        """Square-free decomposition of an exact nonzero polynomial in x."""
        base = CoprimeBase()
        return base.factored(*base.absorb(p))

    def degree(self) -> int:
        return sum((len(f) - 1) * m for f, m in self.factors)

    def expand(self) -> Poly:
        """The product as one polynomial.

        Each factor is split into x**a times g with g(0) != 0; the x**a
        parts only shift exponents.  With d the gcd of the exponents of the
        nonzero terms of all the g, each g is h(x**d), and the powers of the
        h are expanded together by the recurrence D P' = N P of the module
        docstring, then spread back with stride d: about (n/d) * (s/d)
        products of a big integer by a small one for degree n and s the
        summed degree of the g.  The constant is applied last and the Poly
        built once.
        """
        shift, parts = 0, []
        for f, m in self.factors:
            coeffs = f[::-1]
            a = next(k for k, c in enumerate(coeffs) if c)
            shift += a * m
            parts.append((coeffs[a:], m))
        d = math.gcd(*(k for g, _ in parts for k, c in enumerate(g) if c)) or 1
        p = _power_product([(g[::d], m) for g, m in parts])
        spread = [0] * ((len(p) - 1) * d + 1)
        spread[::d] = [self.const * c for c in p]
        return Poly.from_univariate_coeffs(spread[::-1] + [0] * shift)


class CoprimeBase:
    """A growing list of square-free, pairwise coprime, primitive integer
    lists in x with positive leading coefficients, highest degree first.

    A product over the base is a constant and an exponent map {index:
    multiplicity}.  Absorbing a new polynomial may split elements of the
    base; the exponent maps passed as `held` are rewritten in place so that
    they still describe the same products.

    Every element stays primitive and positive without being made so: the
    square-free factors of a leftover are, and by Gauss's lemma so are gcds
    and exact quotients of primitive integer polynomials.
    """

    def __init__(self):
        self.polys: list[list[int]] = []

    def absorb(self, p: Poly, held: Sequence[dict[int, int]] = ()) -> tuple[Fraction, dict[int, int]]:
        """Refine the base until p factors over it; return p's constant and exponents.

        p must be exact and in x alone; anything else raises ValueError."""
        if p.is_zero():
            raise ValueError("the zero polynomial has no factorization")
        scale, h = _to_coeffs(p)
        lead = scale * h[0]
        exps: dict[int, int] = {}
        for i in range(len(self.polys)):
            if len(h) == 1:
                break
            g = _gcd(self.polys[i], h)
            if len(g) == 1:
                continue
            # split element i by the multiplicity its roots have in h
            parts = {}
            cur, e = self.polys[i], 0
            while len(g) > 1:
                rest = _exquo(cur, g)
                if len(rest) > 1:
                    parts[e] = rest
                h = _exquo(h, g)
                cur, e = g, e + 1
                g = _gcd(cur, h)
            parts[e] = cur
            pieces = sorted(parts.items())
            indices = [i]
            self.polys[i] = pieces[0][1]
            for _, piece in pieces[1:]:
                indices.append(len(self.polys))
                self.polys.append(piece)
            for m in held:
                if i in m:
                    for j in indices[1:]:
                        m[j] = m[i]
            for (e, _), j in zip(pieces, indices):
                if e:
                    exps[j] = e
        if len(h) > 1:
            for g, k in _square_free(h):
                exps[len(self.polys)] = k
                self.polys.append(g)
        const = lead / math.prod(self.polys[j][0] ** k for j, k in exps.items())
        return _norm_coeff(const), exps

    def factored(self, const, exps: dict[int, int]) -> Factored:
        """A product over the base as a Factored value."""
        return Factored(const, tuple((self.polys[j], k) for j, k in sorted(exps.items()) if k))
