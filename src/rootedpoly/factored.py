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
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
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
    return Fraction(1, den), sympy.Poly.from_dict(rep, *_symbols(gens), domain=sympy.ZZ)


def _symbols(gens: Sequence[Var]) -> list[sympy.Symbol]:
    return [sympy.Symbol(str(v)) for v in gens]


def _from_sympy(f: sympy.Poly, gens: Sequence[Var], const, shift: Sequence[int]) -> Poly:
    """const * f * prod gens**shift as a Poly."""
    terms = {}
    for exps, c in f.terms():
        mono = tuple((v, e + s) for v, e, s in zip(gens, exps, shift) if e + s)
        terms[mono] = _norm_coeff(const * int(c))
    return Poly(terms)


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
        """The product as one polynomial, multiplied out along a balanced tree:
        the two smallest partial products are always joined first.  A factor
        that is a single variable only shifts exponents."""
        shift = [0] * len(self.gens)
        order = itertools.count()  # ties never compare two polynomials
        heap = [(0, next(order), sympy.Poly(1, *_symbols(self.gens), domain=sympy.ZZ))]
        for f, m in self.factors:
            if f.is_monomial:
                shift = [s + e * m for s, e in zip(shift, f.monoms()[0])]
            else:
                heap.append((f.total_degree() * m, next(order), f ** m))
        heapq.heapify(heap)
        while len(heap) > 1:
            da, _, a = heapq.heappop(heap)
            db, _, b = heapq.heappop(heap)
            heapq.heappush(heap, (da + db, next(order), a * b))
        return _from_sympy(heap[0][2], self.gens, self.const, shift)


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
