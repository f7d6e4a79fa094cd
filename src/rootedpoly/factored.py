"""Polynomials kept as exact products over a coprime base.

A Factored value is a rational constant times prod f_i**m_i, where the f_i
are square-free, pairwise coprime, primitive integer polynomials with a
positive leading coefficient.  Their roots are therefore distinct within one
factor and across factors, and m_i is the exact multiplicity of each.

CoprimeBase holds such a list of polynomials and refines it with exact gcds
whenever a new polynomial arrives, splitting an element when the newcomer
divides part of it, so that several products can be kept over one shared
base (Bernstein, "Factoring into coprimes in essentially linear time",
J. Algorithms, 2005).  The gcd and square-free work is done by sympy.

Expanding a univariate product never multiplies two big polynomials.  With
P = prod g_i**m_i, D = prod g_i and N = sum m_i g_i' D / g_i, the logarithmic
derivative gives D P' = N P, so each coefficient of P follows from the s
before it, s = deg D (J.C.P. Miller's recurrence for powers of power series;
Knuth, TAOCP vol. 2, 4.7).  A product of degree n costs about n * s products
of a big integer by a small one.  Dendrimer polynomials have few small
factors raised to high powers, so s is tiny against n there; when s is
close to n, as for a high-degree product of square-free factors, the cost
is n**2 and a product tree would be faster.  A product with symbolic
weights would need exact division by D(0), a polynomial in the weights, so
it is multiplied out as Poly values instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

import sympy

from .poly import Poly, Var, X, _norm_coeff


def _to_sympy(p: Poly, gens: Sequence[Var]) -> tuple[Fraction, sympy.Poly]:
    """p as scale * F with F an integer sympy polynomial in gens."""
    if not p.is_exact():
        raise ValueError("exact factorization needs exact coefficients")
    position = {v: k for k, v in enumerate(gens)}
    terms = p.terms()
    den = math.lcm(*(Fraction(c).denominator for c in terms.values()))
    rep = {}
    for mono, c in terms.items():
        exps = [0] * len(gens)
        for v, e in mono:
            if v not in position:
                raise ValueError(f"variable {v} outside {', '.join(map(str, gens))}")
            exps[position[v]] = e
        rep[tuple(exps)] = int(c * den)
    symbols = [sympy.Symbol(str(v)) for v in gens]
    return Fraction(1, den), sympy.Poly.from_dict(rep, *symbols, domain=sympy.ZZ)


def _from_sympy(f: sympy.Poly, gens: Sequence[Var]) -> Poly:
    """f as a Poly in gens."""
    return Poly({tuple(zip(gens, exps)): int(c) for exps, c in f.terms()})


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
    d_0 j p_j = sum_{t=1..s} (n_{t-1} - (j - t) d_t) p_{j-t}; the division is
    exact, and a remainder raises ArithmeticError rather than being dropped.
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
    # the window p[j:j + s] holds p_{j-s} .. p_{j-1}, so the weights run t = s .. 1
    a_desc = [num[t - 1] + t * den[t] for t in range(s, 0, -1)]
    den_desc = den[s:0:-1]
    p = [0] * s + [math.prod(g[0] ** m for g, m in factors)]
    for j in range(1, degree + 1):
        window = p[j:j + s]
        q, r = divmod(sum(map(mul, a_desc, window)) - j * sum(map(mul, den_desc, window)), den[0] * j)
        if r:
            raise ArithmeticError(f"inexact division in the power recurrence at x^{j}")
        p.append(q)
    return p[s:]


def _positive(f: sympy.Poly) -> sympy.Poly:
    """f or -f, whichever has a positive leading coefficient.

    Every factor here is primitive already: sympy's square-free factors are,
    and by Gauss's lemma so are gcds and exact quotients of primitive
    integer polynomials.
    """
    return -f if f.LC() < 0 else f


@dataclass(frozen=True)
class Factored:
    """const * prod f**m over square-free, pairwise coprime factors f."""

    const: int | Fraction
    factors: tuple[tuple[sympy.Poly, int], ...]
    gens: tuple[Var, ...] = (X,)

    @staticmethod
    def from_poly(p: Poly) -> "Factored":
        """Square-free decomposition of an exact nonzero polynomial."""
        base = CoprimeBase(sorted(p.variables() | {X}))
        return base.factored(*base.absorb(p))

    def degree(self, v: Var = X) -> int:
        k = self.gens.index(v)
        return sum(f.degree(k) * m for f, m in self.factors)

    def expand(self) -> Poly:
        """The product as one polynomial.

        In x alone each factor is split into x**a times g with g(0) != 0;
        the x**a parts only shift exponents, and the powers of the g are
        expanded together by the recurrence D P' = N P of the module
        docstring, in about n * s products of a big integer by a small one
        for degree n and s the summed degree of the g.  The constant is
        applied last and the Poly built once.  With symbolic weights the
        powers are multiplied out as Poly values, smallest first.
        """
        if self.gens != (X,):
            total = Poly.const(self.const)
            for f, m in sorted(self.factors, key=lambda fm: fm[0].total_degree() * fm[1]):
                total = total * _from_sympy(f, self.gens) ** m
            return total
        shift, parts = 0, []
        for f, m in self.factors:
            coeffs = [int(c) for c in reversed(f.all_coeffs())]
            a = next(k for k, c in enumerate(coeffs) if c)
            shift += a * m
            parts.append((coeffs[a:], m))
        p = _power_product(parts)
        return Poly.from_univariate_coeffs([self.const * c for c in reversed(p)] + [0] * shift)


class CoprimeBase:
    """A growing list of square-free, pairwise coprime, primitive polynomials.

    A product over the base is a constant and an exponent map {index:
    multiplicity}.  Absorbing a new polynomial may split elements of the
    base; the exponent maps passed as `held` are rewritten in place so that
    they still describe the same products.
    """

    def __init__(self, gens: Sequence[Var]):
        self.gens = tuple(gens)
        self.polys: list[sympy.Poly] = []

    def absorb(self, p: Poly, held: Sequence[dict[int, int]] = ()) -> tuple[Fraction, dict[int, int]]:
        """Refine the base until p factors over it; return p's constant and exponents."""
        scale, h = _to_sympy(p, self.gens)
        if h.is_zero:
            raise ValueError("the zero polynomial has no factorization")
        lead = scale * int(h.LC())
        exps: dict[int, int] = {}
        for i in range(len(self.polys)):
            if h.is_ground:
                break
            g = self.polys[i].gcd(h)
            if g.is_ground:
                continue
            # split element i by the multiplicity its roots have in h
            parts = {}
            cur, e = self.polys[i], 0
            while not g.is_ground:
                rest = cur.exquo(g)
                if not rest.is_ground:
                    parts[e] = rest
                h = h.exquo(g)
                cur, e = g, e + 1
                g = cur.gcd(h)
            parts[e] = cur
            pieces = sorted(parts.items())
            indices = [i]
            self.polys[i] = _positive(pieces[0][1])
            for _, piece in pieces[1:]:
                indices.append(len(self.polys))
                self.polys.append(_positive(piece))
            for m in held:
                if i in m:
                    for j in indices[1:]:
                        m[j] = m[i]
            for (e, _), j in zip(pieces, indices):
                if e:
                    exps[j] = e
        if not h.is_ground:
            _, pairs = h.sqf_list()
            for g, k in pairs:
                exps[len(self.polys)] = k
                self.polys.append(_positive(g))
        const = lead / math.prod(int(self.polys[j].LC()) ** k for j, k in exps.items())
        return _norm_coeff(const), exps

    def factored(self, const, exps: dict[int, int]) -> Factored:
        """A product over the base as a Factored value."""
        return Factored(const, tuple((self.polys[j], k) for j, k in sorted(exps.items()) if k),
                        self.gens)
