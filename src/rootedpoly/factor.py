"""Composition identities: circuit polynomials of coalescences, rooted
products, restricted rooted products and dendrimers computed from the
polynomials of their constituents, without building the product graph.

Conventions shared by everything here:

* Substitution-style identities replace a vertex variable together with its
  one-vertex cover weight u: the generic w1 variable, or its numeric value
  under the active specialization (see WeightMode.w1_unit).  Every one of
  them follows one rule: divide the unit out of the small core polynomial
  first (every vertex variable there comes with its u, so a term with k
  substituted variables loses u**k), then substitute v -> num / den with
  denominators cleared.  At u = 1 this is the plain textbook substitution.
* Constituent polynomials follow one of three loop splits: the core
  polynomial carries the total coalescence-node loop weights and the
  attachments are root-loop-stripped; or the core is fully loop-stripped and
  each attachment carries the total loop weight at its root; or each side
  keeps its own loops.  All three produce the identical polynomial.  The
  third is the dendrimer tier step's: the core's fixed-point factor
  (y + sigma_b * b_v) * w1 is y + sigma_b * b_v * w1 once the unit is
  divided out, and y = P / Q makes it (P + sigma_b * b_v * w1 * Q) / Q, the
  attachment with the core's loop added to the one already at its root.
* Bipartite expansion coefficients are normalized by the one-vertex unit
  weight, so the leading coefficient is always exactly 1 and the even part
  q(z) built from them is monic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import zip_longest
from typing import Sequence

from .factored import CoprimeBase, Factored, _times, divides, multiplicity_at
from .graph import (DendrimerSpec, Graph, attach_root_loop, bipartition, delete_root,
                    edge_join, normalize_parts, strip_root_loops)
from .oracle import DEFAULT_CAP, WeightMode, circuit_poly
from .poly import (_FIELD, Poly, Var, X, _from_keys, _shift, multilinear_ratio_substitute,
                   ratio_substitute, wvar, xvar, yvar)
from .spectra import CLUSTER_TOL, RootSet, roots as numeric_roots

Unit = Poly | int | Fraction


@dataclass(frozen=True)
class BipartiteExpansion:
    """Synchronous expansion coefficients of a loopless bipartite core.

    delta[k] multiplies y1**(p1-k) * y2**(p2-k); delta[0] == 1 exactly.
    Entries are polynomials in the w variables, or constants once specialized.
    """

    delta: tuple[Poly, ...]
    p1: int
    p2: int

    def __post_init__(self):
        if len(self.delta) != self.p2 + 1:
            raise ValueError(f"expected {self.p2 + 1} coefficients, got {len(self.delta)}")
        if self.delta[0] != Poly.one():
            raise ValueError("leading expansion coefficient must be 1")

    def constants(self) -> list:
        return [d.constant_value() for d in self.delta]


@dataclass(frozen=True)
class MuSquares:
    """Squared symmetric roots of a bipartite core, plus the exact even part."""

    root_set: RootSet
    q: Poly


@dataclass(frozen=True)
class DivisibilityReport:
    zero_multiplicity: int
    exponent_larger: int
    exponent_smaller: int
    divides: bool
    quotient: Poly | None


# -- unit-weight bookkeeping ---------------------------------------------------

_W1 = Poly.variable(wvar(1))


def _unit_mul(p: Poly, unit) -> Poly:
    if isinstance(unit, Poly):
        if unit != _W1:
            raise ValueError("polynomial unit must be the w1 variable")
        return p * unit
    if unit == 1:
        return p
    return p * unit


def _shift_root_loop(p: Poly, q: Poly, extra, mode: WeightMode) -> Poly:
    """Polynomial of a rooted graph after adding extra loop weight at its root;
    p and q are those of the graph and of the graph without its root."""
    if extra == 0 or mode.x_to_one:  # x_to_one discards loop weights
        return p
    return p + _unit_mul(q, mode.w1_unit) * (mode.sigma_b * extra)


def _unit_divide_terms(p: Poly, variables: Sequence[Var], unit) -> Poly:
    """p with each term divided by unit**k, k its total degree in the given
    variables; error if a term lacks the w1**k a symbolic unit needs."""
    shifts = [_shift(v) for v in variables]
    if isinstance(unit, Poly):
        if unit != _W1:
            raise ValueError("polynomial unit must be the w1 variable")
        w1 = _shift(wvar(1))
        out = {}
        for key, coeff in p._terms.items():
            k = sum(key >> s & _FIELD for s in shifts)
            if key >> w1 & _FIELD < k:
                raise ValueError(f"term {_from_keys({key: coeff})} not divisible by w1^{k}")
            out[key - (k << w1)] = coeff
        return _from_keys(out)
    if unit == 1:
        return p
    inv = Fraction(1) / unit
    return _from_keys({key: coeff * inv ** sum(key >> s & _FIELD for s in shifts)
                       for key, coeff in p._terms.items()})


# -- coalescence and rooted products ------------------------------------------


def attachment_polys(h: Graph, mode: WeightMode, cap: int = DEFAULT_CAP,
                     vmap: dict[int, int] | None = None) -> tuple[Poly, Poly, Poly]:
    """Polynomials P(H), P(H - r) and P(H~) of a rooted graph H, where H~ is
    H with the loop at its root removed: simple ones, or with vmap given,
    ones that keep the vertex variables, renamed from H's vertex v to x_vmap[v].

    Only H~ and H - r are enumerated, each once, with the names applied in
    the enumeration: a loop of weight b at the root adds sigma_b * b * w1 *
    P(H - r) to P(H~).
    """
    if vmap is None:
        mode, names_tri, names_rest = mode.simple(), None, None
    else:
        others = [v for v in range(1, h.p + 1) if v != h.root]  # H - r numbers them 1, 2, ...
        names_tri = {v: xvar(g) for v, g in vmap.items()}
        names_rest = {k: xvar(vmap[v]) for k, v in enumerate(others, start=1)}
    ptri = circuit_poly(strip_root_loops(h), cap, mode, names_tri)
    pl = circuit_poly(delete_root(h), cap, mode, names_rest)
    return _shift_root_loop(ptri, pl, h.loop(h.root), mode), pl, ptri


def coalescence_poly(bg: Poly, bh_minus_r: Poly, bh_tri: Poly, root_var: Var,
                     w1_unit: Unit = 1) -> Poly:
    """Polynomial of a coalescence from the two constituent polynomials.

    bg must be the polynomial of the graph carrying the full loop weight of
    the coalescence node and be multilinear in root_var; bh_tri and
    bh_minus_r are the polynomials of the attachment with its root loops
    stripped and with its root deleted.  The unit is divided out of bg, so
    every term with root_var must carry w1 when the unit is symbolic.
    """
    core = _unit_divide_terms(bg, [root_var], w1_unit)
    return multilinear_ratio_substitute(core, [(root_var, bh_tri, bh_minus_r)])


def rooted_product_poly(core_poly: Poly, gamma_polys: Sequence[tuple[Poly, Poly]],
                        w1_unit: Unit = 1) -> Poly:
    """Product polynomial from the core polynomial and one (numerator,
    P(H - r)) pair per core vertex, x_i taking the i-th.

    The numerator is P(H~), the attachment with its root loop stripped, when
    the core polynomial carries all coalescence-node loops, and P(H), the
    attachment with the full coalescence-node loop at its root, when the core
    is loop-free.  The unit is divided out of the core polynomial before the
    substitution, so with a symbolic unit a term in k of x_1..x_p must carry
    w1**k.
    """
    p = len(gamma_polys)
    for v in core_poly.variables():
        if v.kind == 1 and v.index > p:
            raise ValueError(f"core polynomial mentions x{v.index} but only {p} attachments given")
    targets = [(xvar(i), num, pl) for i, (num, pl) in enumerate(gamma_polys, start=1)]
    core = _unit_divide_terms(core_poly, [v for v, _, _ in targets], w1_unit)
    return multilinear_ratio_substitute(core, targets)


def simple_rooted_product_poly(bg_simple: Poly, bh_tri: Poly, bh_minus_r: Poly,
                               p: int, w1_unit: Unit = 1) -> Poly:
    """Same-attachment-everywhere product from the simple core polynomial.

    Expands the unit-free core polynomial in powers of x, sum_g ghat_g *
    x**(p - g), and recombines the coefficients by Horner's rule, S <- S *
    bh_tri + ghat_g * bh_minus_r**g for g = 1..p from S = ghat_0 = 1, which
    gives sum_g ghat_g * bh_tri**(p - g) * bh_minus_r**g; exact, and identical
    to the substitution route.
    """
    ghat = _unit_divide_terms(bg_simple, [X], w1_unit).coeffs_in_x()
    if len(ghat) - 1 != p:
        raise ValueError(f"core polynomial has degree {len(ghat) - 1}, expected {p}")
    if ghat[0] != Poly.one():
        raise ValueError("gamma0 != 1: core polynomial is not monic after unit normalization")
    total, rest = ghat[0], Poly.one()
    for g in range(1, p + 1):
        rest = bh_minus_r * rest
        total = bh_tri * total + ghat[g] * rest
    return total


def spectral_product_form(bg_roots: RootSet, bh_tri: Poly, bh_minus_r: Poly,
                          w1_unit: Unit = 1) -> Poly:
    """Numeric product polynomial from the core roots: one factor per root.

    The unit comes out of the core as in the substitution routes: bg(y / u),
    monic, has the roots u * t for the roots t of bg, and y = P / Q turns
    each into the factor bh_tri - u * t * bh_minus_r.
    """
    if isinstance(w1_unit, Poly):
        raise ValueError("the root-product form needs a numeric unit")
    return _root_product(Poly.one(), bh_tri, _unit_mul(bh_minus_r, w1_unit), bg_roots)


def _root_product(prod: Poly, a: Poly, b: Poly, roots: RootSet) -> Poly:
    """prod times (a - t * b)**m for each root t of multiplicity m."""
    for t, mult in roots.roots:
        prod = prod * (a - t * b) ** mult
    return prod


def spectral_product_from_loops(bg_roots: RootSet, h: Graph, mode: WeightMode,
                                cap: int = DEFAULT_CAP) -> Poly:
    """Numeric product polynomial as a product of loop-decorated attachment
    polynomials: for each core root, an extra loop of matching weight is added
    at the root of h and the decorated graph is fed to the enumeration oracle.

    h must carry the full coalescence-node loop weight at its root; the extra
    loop weight per root is chosen so the decorated polynomial equals the
    corresponding factor of the root-product form under the given mode.
    """
    if mode.w1 is None:
        raise ValueError("loop route needs a specialized mode with numeric w1")
    base = h.loop(h.root)
    prod = Poly.one()
    for lam, mult in bg_roots.roots:
        # the loop adds sigma_b * beta * w1 * P(H - r) = -w1 * lam * P(H - r),
        # the factor of the unit-free core's root w1 * lam
        beta = -lam / mode.sigma_b
        if beta.imag == 0:
            beta = beta.real
        decorated = attach_root_loop(h, base + beta)
        prod = prod * circuit_poly(decorated, cap, mode.simple()) ** mult
    return prod


# -- bipartite machinery --------------------------------------------------------


def core_parts(core: Graph) -> tuple[tuple[int, ...], int, int]:
    """The core's normalized bipartition (its own or a computed one) and the
    two part sizes."""
    parts = normalize_parts(core).parts if core.parts is not None else bipartition(core)
    return parts, parts.count(1), parts.count(2)


def _part_collapsed(core: Graph, mode: WeightMode, cap: int) -> tuple[Poly, int, int]:
    """Polynomial of a loopless bipartite core under the mode's weights, with
    the variable of its part at each vertex, and the two part sizes."""
    if core.loops:
        raise ValueError("bipartite core must be loopless")
    parts, p1, p2 = core_parts(core)
    names = {i: yvar(parts[i - 1]) for i in range(1, core.p + 1)}
    # the part variables stand in for the vertex variables, which no mode removes here
    mode = replace(mode, x_to_one=False)
    return circuit_poly(core, cap, mode, names), p1, p2


def bipartite_bivariate(core: Graph, mode: WeightMode, cap: int = DEFAULT_CAP) -> Poly:
    """Circuit polynomial of a loopless bipartite core in the two part variables."""
    return _part_collapsed(core, mode, cap)[0]


def bipartite_delta(core: Graph, mode: WeightMode, cap: int = DEFAULT_CAP) -> BipartiteExpansion:
    """Synchronous expansion of a loopless bipartite core under a weight mode.

    The two collective part variables must appear only in monomials
    y1**(p1-k) * y2**(p2-k); anything else raises.  Coefficients are
    normalized by the one-vertex unit weight, making the leading one 1.
    """
    bivar, p1, p2 = _part_collapsed(core, mode, cap)
    try:
        bivar = _unit_divide_terms(bivar, [yvar(1), yvar(2)], mode.w1_unit)
    except ValueError as exc:
        raise ValueError(f"not bipartite-consistent: {exc}") from exc
    buckets: list[dict] = [dict() for _ in range(p2 + 1)]
    for mono, coeff in bivar.terms().items():
        rest = dict(mono)
        e1, e2 = rest.pop(yvar(1), 0), rest.pop(yvar(2), 0)
        k = p1 - e1
        if k != p2 - e2 or not 0 <= k <= p2:
            raise ValueError(f"not bipartite-consistent: monomial y1^{e1}*y2^{e2}")
        buckets[k][tuple(rest.items())] = coeff
    return BipartiteExpansion(tuple(Poly(bucket) for bucket in buckets), p1, p2)


def restricted_product_poly(delta: BipartiteExpansion, ph1: Poly, pl1: Poly,
                            ph2: Poly, pl2: Poly) -> Poly:
    """Restricted-product polynomial from the expansion coefficients,
    ph1**(p1 - p2) * sum_k delta_k * (ph1 * ph2)**(p2 - k) * (pl1 * pl2)**k.

    ph1/ph2 are the attachment polynomials carrying the full loop weight at
    their roots; pl1/pl2 are their root-deleted polynomials.  The sum is
    formed by Horner's rule, S <- S * (ph1 * ph2) + delta_k * (pl1 * pl2)**k
    for k = 1..p2 from S = delta_0, and multiplied by ph1**(p1 - p2) once.
    """
    both_h, both_l = ph1 * ph2, pl1 * pl2
    total, lpow = delta.delta[0], Poly.one()
    for d in delta.delta[1:]:
        lpow = both_l * lpow
        total = both_h * total + d * lpow
    return ph1 ** (delta.p1 - delta.p2) * total


def restricted_substitution_poly(bivariate: Poly, ph1: Poly, pl1: Poly,
                                 ph2: Poly, pl2: Poly, w1_unit: Unit = 1) -> Poly:
    """Restricted-product polynomial by direct substitution into the bivariate
    core polynomial, unit divided out first and denominators cleared.
    Agrees exactly with the expansion route."""
    core = _unit_divide_terms(bivariate, [yvar(1), yvar(2)], w1_unit)
    return ratio_substitute(core, [(yvar(1), ph1, pl1), (yvar(2), ph2, pl2)])


def one_sided_product_poly(delta: BipartiteExpansion, ph: Poly, pl: Poly,
                           other_loop, mode: WeightMode, larger_side: bool) -> Poly:
    """Attachments on one part only; the other part keeps bare loop-weighted
    vertices.  other_loop is the common loop weight on the bare side."""
    unit = _unit_mul(Poly.variable(X) + mode.sigma_b * other_loop, mode.w1_unit)
    if larger_side:
        return restricted_product_poly(delta, ph, pl, unit, Poly.one())
    return restricted_product_poly(delta, unit, Poly.one(), ph, pl)


def mu_squares(delta: BipartiteExpansion) -> MuSquares:
    """Squared symmetric roots of the core: the roots of q(z), whose
    descending coefficients are the expansion coefficients; none when q is
    constant."""
    qc = delta.constants()
    q = Poly.from_univariate_coeffs(qc)
    if len(qc) == 1:
        return MuSquares(RootSet(roots=(), source_degree=0, cluster_tol=CLUSTER_TOL, residuals=()), q)
    return MuSquares(numeric_roots(q), q)


def restricted_spectral_form(mu2: RootSet, ph1: Poly, pl1: Poly, ph2: Poly,
                             pl2: Poly, p1: int, p2: int) -> Poly:
    """Numeric restricted-product polynomial built from the squared core roots."""
    if mu2.source_degree != p2:
        raise ValueError(f"expected {p2} squared roots, got {mu2.source_degree}")
    return _root_product(ph1 ** (p1 - p2), ph1 * ph2, pl1 * pl2, mu2)


def restricted_product_from_edge_join(mu2: RootSet, h1: Graph, h2: Graph,
                                      mode: WeightMode, p1: int, p2: int,
                                      cap: int = DEFAULT_CAP) -> Poly:
    """Numeric restricted-product polynomial as a product of polynomials of
    root-to-root edge-joined attachment pairs, one per squared core root."""
    if mode.w2 is None or mode.w2 == 0:
        raise ValueError("edge-join route needs a specialized mode with nonzero w2")
    if mu2.source_degree != p2:
        raise ValueError(f"expected {p2} squared roots, got {mu2.source_degree}")
    prod = circuit_poly(h1, cap, mode.simple()) ** (p1 - p2)
    for m, mult in mu2.roots:
        weight = -m / mode.w2
        if isinstance(weight, complex) and weight.imag == 0:
            weight = weight.real
        joined = edge_join(h1, h2, weight)
        prod = prod * circuit_poly(joined, cap, mode.simple()) ** mult
    return prod


def reciprocal_check(core: Graph, h1: Graph, h2: Graph, mode: WeightMode,
                     cap: int = DEFAULT_CAP) -> bool:
    """Whether swapping the two attachment sorts on an equipartite core
    preserves the product polynomial (it always does; exposed as a checker)."""
    if core.loops:
        raise ValueError("core must be loopless; put vertex weights on the attachment roots")
    _, p1, p2 = core_parts(core)
    if p1 != p2:
        raise ValueError(f"parts unequal: {p1} != {p2}")
    delta = bipartite_delta(core, mode, cap)
    ph1, pl1, _ = attachment_polys(h1, mode, cap)
    ph2, pl2, _ = attachment_polys(h2, mode, cap)
    direct = restricted_product_poly(delta, ph1, pl1, ph2, pl2)
    swapped = restricted_product_poly(delta, ph2, pl2, ph1, pl1)
    return direct == swapped


def zero_divisibility_report(t_poly: Poly, ph1: Poly, ph2: Poly,
                             product_poly: Poly, p1: int, p2: int) -> DivisibilityReport:
    """Exact divisibility of the product polynomial by attachment powers tied
    to the multiplicity s of the zero root of the core polynomial.

    s always splits as (p1 - p2) guaranteed zeros plus twice the number of
    vanishing squared roots; each vanishing squared root yields one factor of
    each attachment polynomial, the part difference yields extra factors of
    the first.  Hence the exponents (s + p1 - p2) / 2 and (s - p1 + p2) / 2.
    """
    s = multiplicity_at(t_poly, 0)
    if s < p1 - p2:
        raise ValueError(f"zero multiplicity {s} below part difference {p1 - p2}")
    if (s - p1 + p2) % 2:
        raise ValueError(f"zero multiplicity {s} has wrong parity for parts ({p1},{p2})")
    e1 = (s + p1 - p2) // 2
    e2 = (s - p1 + p2) // 2
    divisor = ph1 ** e1 * ph2 ** e2
    ok, quotient = divides(divisor, product_poly)
    return DivisibilityReport(zero_multiplicity=s, exponent_larger=e1,
                              exponent_smaller=e2, divides=ok, quotient=quotient)


# -- dendrimers -------------------------------------------------------------------


def weight_gens(mode: WeightMode, p: int) -> tuple[Var, ...]:
    """The component weights the mode leaves symbolic; no cycle of a unit or
    a core is longer than p."""
    return tuple(wvar(i) for i in range(1, p + 1) if mode.w_value(i) is None)


_SITE = yvar(1)


def _site_rows(core: Poly) -> tuple[int, list[list[int]]]:
    """An exact tier core in y1 and x as (den, rows) with den * core =
    sum_e rows[e] * y1**e, each row an integer list in x, lowest degree
    first; a float coefficient raises ValueError."""
    if not core.is_exact():
        raise ValueError("exact factorization needs exact coefficients")
    xs, ys = _shift(X), _shift(_SITE)
    den = math.lcm(*(c.denominator for c in core._terms.values()))
    rows = [[0] * (core.degree_in(X) + 1) for _ in range(core.degree_in(_SITE) + 1)]
    for key, c in core._terms.items():
        rows[key >> ys & _FIELD][key >> xs & _FIELD] = int(c * den)
    return den, rows


def _products(base: CoprimeBase, p_cur: tuple, q_cur: tuple,
              cores: Sequence[tuple[int, list[list[int]]]]) -> list[tuple]:
    """The tier step over the base, with P, Q and the products as (constant,
    exponents).  The base factors g that P and Q share cancel from the ratio,
    which leaves p_hat / q_hat in lowest terms and of small degree.  With
    their constants cleared into one scale, p_hat and q_hat are c * P and
    c * Q for integer lists P and Q, and the core sum_e row_e * y1**e of
    degree k in y1 gives the product c**k * sum_e row_e * P**e * Q**(k - e),
    formed by Horner's rule in P on integer lists and refined into the base;
    the shared factors come back as g**k.  Each core is its (den, rows)
    from _site_rows, computed once by the caller for all tiers.
    """
    (cp, ep), (cq, eq) = p_cur, q_cur
    shared = {i: min(e, eq[i]) for i, e in ep.items() if i in eq}
    p_hat = base.factored(cp, {i: e - shared.get(i, 0) for i, e in ep.items()})
    q_hat = base.factored(cq, {i: e - shared.get(i, 0) for i, e in eq.items()})
    ratio = Fraction(cp) / cq
    p = [ratio.numerator * c for c in reversed(p_hat.coeffs())]
    q = [ratio.denominator * c for c in reversed(q_hat.coeffs())]
    q_powers = [[1], q]
    carried = [{i: (len(rows) - 1) * e for i, e in shared.items()} for _, rows in cores]
    found = []
    for den, rows in cores:
        k = len(rows) - 1
        while len(q_powers) <= k:
            q_powers.append(_times(q_powers[-1], q))
        acc = rows[k]
        for e in range(k - 1, -1, -1):
            acc = [a + b for a, b in zip_longest(_times(acc, p), _times(rows[e], q_powers[k - e]),
                                                 fillvalue=0)]
        while len(acc) > 1 and not acc[-1]:
            acc.pop()
        scale = Fraction(cq, ratio.denominator) ** k / den
        found.append(base.absorb_coeffs(scale, acc[::-1], held=carried + [e for _, e in found]))
    return [(c, {**e, **{i: e.get(i, 0) + n for i, n in g.items()}})
            for (c, e), g in zip(found, carried)]


def _site_core(g: Graph, names: dict[int, Var], mode: WeightMode, cap: int) -> Poly:
    """Polynomial of a tier core with the given vertex names, the unit
    divided out of its attach sites; a mode that drops the vertex variables
    naming the sites is refused."""
    if mode.x_to_one:
        raise ValueError(f"mode {mode.name} removes vertex variables; not usable here")
    return _unit_divide_terms(circuit_poly(g, cap, mode, names), [_SITE], mode.w1_unit)


def _unit_targets(unit: Graph, attach_sites: Sequence[int], mode: WeightMode,
                  cap: int) -> list[Poly]:
    """The unit and the unit without its root, the two cores of every tier:
    every unit vertex takes an attachment, the previous branch at the attach
    sites and a bare vertex elsewhere."""
    sites = set(attach_sites)
    cores = []
    for g, kept in ((unit, range(1, unit.p + 1)),
                    (delete_root(unit), [v for v in range(1, unit.p + 1) if v != unit.root])):
        names = {i: _SITE if v in sites else X for i, v in enumerate(kept, start=1)}
        cores.append(_site_core(g, names, mode, cap))
    return cores


def _core_target(core: Graph, mode: WeightMode, cap: int) -> Poly:
    """The dendrimer core with a branch at every vertex."""
    return _site_core(core, dict.fromkeys(range(1, core.p + 1), _SITE), mode, cap)


def _branch_factored(unit: Graph, attach_sites: Sequence[int], tiers: int, mode: WeightMode,
                     cap: int, base: CoprimeBase) -> tuple[tuple, tuple]:
    """The branch P and its root-deleted graph Q as (constant, exponents)
    over the base, tier by tier."""
    p_cur = base.absorb(_unit_mul(Poly.variable(X), mode.w1_unit))  # bare rooted vertex
    q_cur = (1, {})                                                  # nothing left
    if tiers == 0:
        return p_cur, q_cur
    cores = [_site_rows(core) for core in _unit_targets(unit, attach_sites, mode, cap)]
    for _ in range(tiers):
        p_cur, q_cur = _products(base, p_cur, q_cur, cores)
    return p_cur, q_cur


def _branch_plain(unit: Graph, attach_sites: Sequence[int], tiers: int, mode: WeightMode,
                  cap: int) -> tuple[Poly, Poly]:
    """The branch P and its root-deleted graph Q as plain polynomials, tier
    by tier: the path for modes that leave some component weight symbolic,
    which a coprime base in x cannot hold.  The attachment ratio P / Q
    replaces y1 in each core, and the bare vertices need nothing."""
    p, q = _unit_mul(Poly.variable(X), mode.w1_unit), Poly.one()
    if tiers == 0:
        return p, q
    cores = _unit_targets(unit, attach_sites, mode, cap)
    for _ in range(tiers):
        p, q = [ratio_substitute(core, [(_SITE, p, q)]) for core in cores]
    return p, q


def monodendron_polys(unit: Graph, attach_sites: Sequence[int], tiers: int,
                      mode: WeightMode, cap: int = DEFAULT_CAP) -> tuple[Poly, Poly]:
    """Simple polynomials of the branch with the given tier count and of the
    branch with its root deleted, from the tier recursion: factored over a
    coprime base when every component weight is a number, on plain
    polynomials otherwise."""
    if unit.root is None:
        raise ValueError("monodendron unit must be rooted")
    if weight_gens(mode, unit.p):
        return _branch_plain(unit, attach_sites, tiers, mode, cap)
    base = CoprimeBase()
    p_cur, q_cur = _branch_factored(unit, attach_sites, tiers, mode, cap, base)
    return base.factored(*p_cur).expand(), base.factored(*q_cur).expand()


def dendrimer_factored(spec: DendrimerSpec, mode: WeightMode, cap: int = DEFAULT_CAP) -> Factored:
    """Simple circuit polynomial of a dendrimer as a product over a coprime base.

    Only the unit and the core are ever enumerated; the branches enter through
    their factored polynomials, so the result scales to thousands of vertices
    while every factor stays small.  The mode must give every component
    weight a number; the base holds polynomials in x alone.
    """
    symbolic = weight_gens(mode, max(spec.unit.p, spec.core.p))
    if symbolic:
        raise ValueError(f"mode {mode.name} leaves {', '.join(map(str, symbolic))} symbolic; "
                         "only polynomials in x are factored")
    base = CoprimeBase()
    p_cur, q_cur = _branch_factored(spec.unit, spec.attach_sites, spec.generations, mode, cap, base)
    [(const, exps)] = _products(base, p_cur, q_cur, [_site_rows(_core_target(spec.core, mode, cap))])
    return base.factored(const, exps)


def dendrimer_spectrum(spec: DendrimerSpec, mode: WeightMode, cap: int = DEFAULT_CAP) -> RootSet:
    """Spectrum of a dendrimer from its factored polynomial, found one
    coprime factor at a time; the product graph is never built and the
    polynomial never expanded.  A mode that leaves a component weight
    symbolic is rejected before the recursion runs."""
    return numeric_roots(dendrimer_factored(spec, mode, cap))


def dendrimer_poly(spec: DendrimerSpec, mode: WeightMode, cap: int = DEFAULT_CAP) -> Poly:
    """Simple circuit polynomial of a dendrimer: expanded from its factored
    form, or, when the mode leaves some component weight symbolic, from the
    tier recursion on plain polynomials."""
    if weight_gens(mode, max(spec.unit.p, spec.core.p)):
        p, q = _branch_plain(spec.unit, spec.attach_sites, spec.generations, mode, cap)
        return ratio_substitute(_core_target(spec.core, mode, cap), [(_SITE, p, q)])
    return dendrimer_factored(spec, mode, cap).expand()
