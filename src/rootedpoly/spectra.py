"""Numeric roots of simple circuit polynomials, with multiplicity handling.

Exact-coefficient polynomials are first split into square-free, pairwise
coprime factors (so repeated roots come out with exact integer
multiplicities), or arrive so factored; each factor is solved on its own by
companion-matrix eigenvalues and polished by Newton steps.  Coefficients
beyond the double range are scaled by exact powers of two first.  The
polish of an exact factor stops once a correction is no smaller than the
one before, where the float values of the factor are rounding noise, and
then takes one last step whose value of the factor is computed exactly on
its integer list and rounded once.  A Sturm count on the factor's integer
coefficient list, by pseudo-remainders in plain ints, fixes how many roots
of each factor are real.  The multiplicities of exact input come from the
factorization alone; only the roots of a float-coefficient polynomial are
merged within the cluster tolerance.
Residuals are |f(z)| on the float coefficients of the factor a root was
extracted from, which keeps them meaningful for huge-coefficient inputs.
The exact multiplicity of one given root comes from factored.multiplicity_at.
Nothing here knows about graphs: factor.dendrimer_spectrum hands a
dendrimer's factored polynomial to roots.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .factored import Factored, _horner
from .poly import Poly, X

# the distance within which the roots of a float-coefficient polynomial merge
CLUSTER_TOL = 1e-7


@dataclass(frozen=True)
class RootSet:
    """Roots with multiplicities, sorted by descending real then imaginary part."""

    roots: tuple[tuple[complex, int], ...]
    source_degree: int
    cluster_tol: float
    residuals: tuple[float, ...]

    def __post_init__(self):
        if sum(m for _, m in self.roots) != self.source_degree:
            raise ValueError("multiplicities do not sum to the source degree")

    def expanded(self) -> list[complex]:
        out = []
        for value, mult in self.roots:
            out.extend([value] * mult)
        return out

    def values(self) -> list[complex]:
        return [value for value, _ in self.roots]


def roots(p: Poly | Factored, cluster_tol: float = CLUSTER_TOL) -> RootSet:
    """All complex roots of a univariate polynomial in x.

    An exact polynomial is split into square-free, pairwise coprime factors
    first; a Factored one already is.  Each factor is solved on its own and
    its roots take its exponent as their exact multiplicity.  The roots of a
    square-free factor are simple, so they are never merged, however close.
    A Sturm count on the factor's integer coefficient list decides how many
    roots of each factor are real, and those come out with an imaginary part
    of exactly 0.  Only a polynomial with float coefficients has its roots
    merged within the cluster tolerance.
    A real or imaginary part beyond the double range (magnitude above about
    1.8e308) comes out as inf with its sign; the root keeps its exact
    multiplicity and the other roots are unaffected.  This is the contract,
    not an error.  A factor with roots beyond that range at both ends, which
    no single power-of-two scaling fits, raises ValueError.
    """
    if isinstance(p, Poly):
        coeffs = p.univariate_coeffs(X)
        if not p.is_exact():
            found = _cluster(_solve(coeffs, 1, exact=False), cluster_tol)
            return _rootset([found], len(coeffs) - 1, cluster_tol)
        p = Factored.from_poly(p)
    found = [_solve(f, m, exact=True) for f, m in p.factors]
    return _rootset(found, p.degree(), cluster_tol)


def _rootset(found: list[list[tuple[complex, int, float]]], degree: int,
             cluster_tol: float) -> RootSet:
    if degree < 1:
        raise ValueError("polynomial of degree 0 has no roots")
    merged = [item for per_factor in found for item in per_factor]
    merged.sort(key=lambda item: (-item[0].real, -item[0].imag))
    return RootSet(
        roots=tuple((value, mult) for value, mult, _ in merged),
        source_degree=degree,
        cluster_tol=cluster_tol,
        residuals=tuple(res for _, _, res in merged),
    )


def _solve(coeffs: list, mult: int, exact: bool) -> list[tuple[complex, int, float]]:
    """The roots of one factor, each with the factor's multiplicity and its residual.

    An exact factor, a square-free integer list, is polished by Newton steps
    until they converge or their corrections stop shrinking; in the second
    case the best iterate takes one last step whose value of the factor is
    computed exactly on its integer list.
    Its real roots are counted exactly when some root came out with a
    nonzero imaginary part, and that many roots with the smallest imaginary
    parts are made real.
    Residuals are |f(z)| on the float coefficients the roots were found
    from, so on the scaled polynomial when the coefficients needed scaling.
    A root beyond the double range comes out infinite.
    """
    if exact:
        fc, shift, top = _float_coeffs(coeffs)
        found = _numeric_roots(fc, partial(_exact_value, coeffs, shift, top))
    else:
        fc, shift = [complex(c) for c in coeffs], 0
        found = _numeric_roots(fc)
    if exact and any(z.imag for z in found):
        order = sorted(range(len(found)), key=lambda k: abs(found[k].imag))
        for k in order[:_real_root_count(coeffs)]:
            found[k] = complex(found[k].real, 0.0)
    return [(_times_power_of_two(z, shift), mult, abs(_horner(fc, z))) for z in found]


def _real_root_count(f: list[int]) -> int:
    """The number of distinct real roots of a non-constant integer list, by
    Sturm's theorem: the sign changes of f, f', -rem(f, f'), ... at -inf
    less those at +inf.  Each remainder comes from _prem with the divisor's
    sign taken out, so it is a positive multiple of the true remainder, and
    is divided by its positive content."""
    n = len(f) - 1
    chain = [f, [a * (n - i) for i, a in enumerate(f[:-1])]]
    while len(chain[-1]) > 1:
        g = chain[-1]
        r = _prem(chain[-2], g if g[0] > 0 else [-a for a in g])
        if not r:
            break
        content = math.gcd(*r)
        chain.append([-a // content for a in r])

    def changes(signs: list[bool]) -> int:
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return (changes([(g[0] > 0) != (len(g) % 2 == 0) for g in chain])
            - changes([g[0] > 0 for g in chain]))


def _prem(f: list[int], g: list[int]) -> list[int]:
    """A multiple of the remainder of f by g by a power of g's leading
    coefficient, as a list with no leading zeros; [] when g divides f over
    the rationals.  A step multiplies by that coefficient only when it does
    not divide the leading term, so the multiple is positive when the
    coefficient is, which the Sturm count relies on."""
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


def _times_power_of_two(z: complex, shift: int) -> complex:
    """z * 2**shift; a part beyond the double range becomes infinite."""
    def part(v: float) -> float:
        try:
            return math.ldexp(v, shift)
        except OverflowError:
            return math.copysign(math.inf, v)

    return z if shift == 0 else complex(part(z.real), part(z.imag))


# -- internals ------------------------------------------------------------


# coefficients whose binary exponent stays within this bound convert to
# doubles as they are, and so do the values met while polishing
_PLAIN_EXPONENT = 1000


def _float_coeffs(f: list[int]) -> tuple[list[complex], int, int]:
    """Float coefficients of 2**-t * f(2**s * y) for an integer list f, s and t.

    Coefficients far outside the double range are scaled exactly: s puts
    the geometric mean of the nonzero roots near 1 and t the largest
    coefficient near 1, both read off the coefficient bit sizes.  The roots
    of f are 2**s times those of the result.  A ValueError when the scaled
    leading coefficient rounds to 0: then no single scaling fits f.
    """
    exps = [abs(c).bit_length() - 1 if c else None for c in f]  # floor(log2 |c|)
    if all(e is None or e <= _PLAIN_EXPONENT for e in exps):
        return [complex(c) for c in f], 0, 0
    n = len(f) - 1
    last = max(i for i, e in enumerate(exps) if e is not None)
    shift = round((exps[last] - exps[0]) / last) if last else 0
    top = max(e + shift * (n - i) for i, e in enumerate(exps) if e is not None)
    fc = [complex(_times_2_to(c, shift * (n - i) - top)) for i, c in enumerate(f)]
    if not fc[0]:
        raise ValueError(f"a factor of degree {n} has roots too far apart for one "
                         "power-of-two scaling: its scaled leading coefficient rounds to 0")
    return fc, shift, top


def _times_2_to(c: int, e: int) -> float:
    """c * 2**e correctly rounded; OverflowError beyond the double range."""
    return float(c << e) if e >= 0 else c / (1 << -e)


def _numeric_roots(fc: list[complex], exact_value=None) -> list[complex]:
    """Roots of one (preferably square-free) polynomial, Newton-polished;
    exact_value(a, b, k) gives its value at (a + b i) / 2**k as a complex
    when the polynomial has exact coefficients."""
    degree = len(fc) - 1
    deriv = [c * (degree - i) for i, c in enumerate(fc[:-1])]
    return [_newton_polish(fc, deriv, complex(z), exact_value) for z in np.roots(fc)]


def _newton_polish(fc, deriv, z: complex, exact_value=None, steps: int = 40) -> complex:
    """Newton's method from z on the float coefficients, at most `steps`
    steps, stopped once a correction falls below 1e-15 relative; the iterate
    of smallest |f| is kept.

    With exact_value, the iteration also stops once a correction is no
    smaller than the one before: the float values of f have reached their
    rounding floor, and a Newton step is only as accurate as the value it
    divides (Wilkinson, Rounding Errors in Algebraic Processes, 1963).  The
    best iterate then takes one last step on an exact value of f.
    """
    fz = _horner(fc, z)
    best, best_val = z, abs(fz)
    last = math.inf
    for _ in range(steps):
        dz = _horner(deriv, z)
        if dz == 0:
            break
        step = fz / dz
        if exact_value is not None and abs(step) >= last:
            return _exact_step(deriv, best, exact_value)
        last = abs(step)
        z = z - step
        fz = _horner(fc, z)  # the next step's value too
        val = abs(fz)
        if val < best_val:
            best, best_val = z, val
        if abs(step) < 1e-15 * max(1.0, abs(z)):
            break
    return best


def _exact_step(deriv, z: complex, exact_value) -> complex:
    """One Newton step from z, rounded to 53 bits at its own magnitude, with
    the exact value of f there divided by the float derivative; z itself
    when z is not finite, the value overflows a double, the derivative is 0
    or the step is not finite."""
    if not cmath.isfinite(z):
        return z
    k = 53 - math.frexp(max(abs(z.real), abs(z.imag)))[1]
    a, b = round(math.ldexp(z.real, k)), round(math.ldexp(z.imag, k))
    w = complex(math.ldexp(a, -k), math.ldexp(b, -k))
    dw = _horner(deriv, w)
    if dw == 0:
        return z
    try:
        out = w - exact_value(a, b, k) / dw
    except OverflowError:
        return z
    return out if cmath.isfinite(out) else z


def _exact_value(f: list[int], shift: int, top: int, a: int, b: int, k: int) -> complex:
    """2**-top * f(2**shift * w) at w = (a + b i) / 2**k for an integer list
    f, the polynomial _float_coeffs scaled, evaluated on Gaussian integers by
    Horner's rule on f's homogenized form and rounded once to a complex
    double; OverflowError when a part is beyond the double range."""
    e = k - shift  # 2**shift * w = (a + b i) / 2**e
    if e < 0:
        a, b, e = a << -e, b << -e, 0
    re = im = 0
    if b:
        for i, c in enumerate(f):
            re, im = re * a - im * b + (c << e * i), re * b + im * a
    else:
        for i, c in enumerate(f):
            re = re * a + (c << e * i)
    d = -(e * (len(f) - 1) + top)
    return complex(_times_2_to(re, d), _times_2_to(im, d))


def _cluster(found: list[tuple[complex, int, float]], tol: float) -> list[tuple[complex, int, float]]:
    """Greedy union of roots within tol of each other (multiplicity-weighted mean);
    for float-coefficient input only, whose multiplicities no factorization gives."""
    clusters: list[list[tuple[complex, int, float]]] = []
    for item in sorted(found, key=lambda it: (it[0].real, it[0].imag)):
        for members in clusters:
            if abs(members[0][0] - item[0]) <= tol:
                members.append(item)
                break
        else:
            clusters.append([item])
    out = []
    for members in clusters:
        if len(members) == 1:  # as found, which also keeps infinite roots intact
            out.append(members[0])
            continue
        total = sum(m for _, m, _ in members)
        mean = sum(v * m for v, m, _ in members) / total
        res = max(r for _, _, r in members)
        # keep exact-looking real/zero values tidy
        if abs(mean.imag) <= tol / 2 and any(abs(v.imag) == 0 for v, _, _ in members):
            mean = complex(mean.real, 0.0)
        out.append((mean, total, res))
    return out
