"""Identity verification suites over an enumerated corpus.

Each suite checks a family of composition identities against the enumeration
oracle on explicitly constructed product graphs (exact suites, zero
tolerance) or against the exact routes (numeric suites, relative tolerance).
The corpus is every connected core on up to four vertices crossed with six
rooted attachment graphs, with and without injected loop weights.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace

from . import factor, spectra
from .factored import divides, multiplicity_at
from .graph import (DendrimerSpec, Graph, attach_root_loop, bipartition, complete,
                    cycle, from_edges, k1, monodendron, monodendron_star,
                    path, rooted_product, restricted_rooted_product, star,
                    strip_all_loops, strip_root_loops)
from .oracle import (CHARACTERISTIC_STANDARD, GENERIC, PERMANENTAL, WeightMode,
                     char_poly_det, circuit_poly)
from .poly import Poly, X, ratio_substitute, wvar, xvar

SUITE_CAP = 13


@dataclass
class IdentityReport:
    identity: str
    instances: int = 0
    failures: int = 0
    max_deviation: float = 0.0
    detail: str = ""

    @property
    def status(self) -> str:
        return "pass" if self.failures == 0 and self.instances > 0 else "fail"

    def record(self, ok: bool, deviation: float = 0.0, detail: str = ""):
        self.instances += 1
        if deviation > self.max_deviation:
            self.max_deviation = deviation
        if not ok:
            self.failures += 1
            if detail and not self.detail:
                self.detail = detail


@dataclass
class SuiteReport:
    suite: str
    identities: list[IdentityReport] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return all(r.status == "pass" for r in self.identities)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "status": "pass" if self.passed else "fail",
            "elapsed_seconds": round(self.elapsed, 3),
            "identities": [
                {
                    "id": r.identity,
                    "instances": r.instances,
                    "failures": r.failures,
                    "max_deviation": r.max_deviation,
                    "status": r.status,
                    **({"detail": r.detail} if r.detail else {}),
                }
                for r in self.identities
            ],
        }


# -- corpus -------------------------------------------------------------------


def corpus_cores() -> list[tuple[str, Graph]]:
    """Every connected undirected graph on at most four vertices."""
    return [
        ("k1", k1(rooted=False)),
        ("k2", complete(2)),
        ("p3", path(3)),
        ("k3", complete(3)),
        ("p4", path(4)),
        ("star3", star(3)),
        ("c4", cycle(4)),
        ("paw", from_edges(4, [(1, 2), (2, 3), (1, 3), (3, 4)])),
        ("diamond", from_edges(4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])),
        ("k4", complete(4)),
    ]


def corpus_attachments() -> list[tuple[str, Graph]]:
    return [
        ("k1", k1()),
        ("k2", complete(2).with_root(1)),
        ("p3-end", path(3).with_root(1)),
        ("p3-mid", path(3).with_root(2)),
        ("k3", complete(3).with_root(1)),
        ("k1-loop", k1(loop=1)),
    ]


def loop_variants(p: int) -> list[dict[int, int]]:
    """Loop weight injections exercising values -1, 1 and 2."""
    variants: list[dict[int, int]] = [{}, {1: -1}]
    third = {1: 1, p: 2} if p > 1 else {1: 2}
    variants.append(third)
    return variants


def bipartite_cores() -> list[tuple[str, Graph]]:
    out = []
    for name, g in corpus_cores():
        try:
            parts = bipartition(g)
        except ValueError:
            continue
        out.append((name, g.with_parts(parts)))
    return out


# -- helpers ----------------------------------------------------------------------


def _with_loops(g: Graph, loops: dict[int, int]) -> Graph:
    return replace(g, loops={**g.loops, **{v: g.loop(v) + b for v, b in loops.items()}})


def coeff_deviation(exact: Poly, numeric: Poly) -> float:
    """Relative coefficient distance between two univariate polynomials."""
    ce = [complex(c) for c in exact.univariate_coeffs(X)]
    cn = [complex(c) for c in numeric.univariate_coeffs(X)]
    if len(ce) < len(cn):
        ce = [0j] * (len(cn) - len(ce)) + ce
    elif len(cn) < len(ce):
        cn = [0j] * (len(ce) - len(cn)) + cn
    scale = max(1.0, max(abs(c) for c in ce))
    return max(abs(a - b) for a, b in zip(ce, cn)) / scale


# -- products suite ---------------------------------------------------------------


def run_products_suite(cap: int = SUITE_CAP) -> SuiteReport:
    """Exact composition identities for coalescences and rooted products."""
    t0 = time.perf_counter()
    w1 = Poly.variable(wvar(1))
    simple_generic = GENERIC.simple()
    simple_char = CHARACTERISTIC_STANDARD.simple()
    rep_coal = IdentityReport("coalescence-substitution")
    rep_attach = IdentityReport("rooted-product-stripped-attachments")
    rep_core = IdentityReport("rooted-product-stripped-core")
    rep_sub = IdentityReport("uniform-product-substitution")
    rep_exp = IdentityReport("uniform-product-expansion")
    rep_div = IdentityReport("attachment-power-divisibility")

    cores = corpus_cores()
    attachments = corpus_attachments()
    # simple polynomials of the uniform families' attachments; the suite skips
    # every product beyond the cap, so it never needs a larger attachment
    fits = [(n, h) for n, h in attachments if h.p <= cap]
    simple_triples = {n: factor.attachment_polys(h, GENERIC, cap) for n, h in fits}
    tri_chars = {n: circuit_poly(strip_root_loops(h), cap, simple_char) for n, h in fits}

    # P(H~) and P(H - r) of each attachment in the product's numbering, by
    # (attachment, vertex map); the loop a core vertex adds at the root
    # changes only P(H), which is rebuilt from the two
    constituents: dict[tuple, tuple[Poly, Poly]] = {}

    def triple(h_name: str, h: Graph, core_loop, vmap: dict[int, int]) -> tuple[Poly, Poly, Poly]:
        key = h_name, tuple(vmap.items())
        if key not in constituents:
            constituents[key] = factor.attachment_polys(h, GENERIC, cap, vmap)[1:]
        pl, ptri = constituents[key]
        return factor._shift_root_loop(ptri, pl, core_loop + h.loop(h.root), GENERIC), pl, ptri

    # each core with its loops and the attachments' root loops added, by (core,
    # nonzero loops, mode): loop variants, coalescences and families share them
    hats: dict[tuple, Poly] = {}

    def hatted(core_name: str, core: Graph, root_loops: dict[int, int],
               mode: WeightMode = GENERIC) -> Poly:
        g = _with_loops(core, root_loops)
        key = core_name, tuple(sorted((v, b) for v, b in g.loops.items() if b)), mode
        if key not in hats:
            hats[key] = circuit_poly(g, cap, mode)
        return hats[key]

    for core_name, core_base in cores:
        free = hatted(core_name, strip_all_loops(core_base), {})
        for loops in loop_variants(core_base.p):
            core = _with_loops(core_base, loops)

            # coalescence at vertex 1 with every attachment sort
            for h_name, h in attachments:
                if core.p + h.p - 1 > cap:
                    continue
                product, maps = rooted_product(core, [h] + [k1()] * (core.p - 1))
                want = circuit_poly(product, cap)
                ph, pl, ptri = triple(h_name, h, core.loop(1), maps[0])
                got = factor.coalescence_poly(hatted(core_name, core, {1: h.loop(h.root)}), pl, ptri,
                                              xvar(1), w1_unit=w1)
                rep_coal.record(got == want, detail=f"{core_name}+{h_name} loops={loops}")

            # generalized rooted products: uniform sorts plus one mixed family
            families = [[a] * core.p for a in attachments]
            families.append([attachments[(k + 1) % len(attachments)] for k in range(core.p)])
            for fam_idx, members in enumerate(families):
                gamma = [h for _, h in members]
                total = core.p + sum(h.p - 1 for h in gamma)
                if total > cap:
                    continue
                product, maps = rooted_product(core, gamma)
                want = circuit_poly(product, cap)
                triples = [triple(h_name, h, core.loop(k + 1), maps[k])
                           for k, (h_name, h) in enumerate(members)]
                root_loops = {k + 1: h.loop(h.root) for k, h in enumerate(gamma)}
                got_a = factor.rooted_product_poly(hatted(core_name, core, root_loops),
                                                   [(ptri, pl) for _, pl, ptri in triples], w1)
                got_c = factor.rooted_product_poly(free, [(ph, pl) for ph, pl, _ in triples], w1)
                detail = f"{core_name} family {fam_idx} loops={loops}"
                rep_attach.record(got_a == want, detail=detail)
                rep_core.record(got_c == want, detail=detail)

                if fam_idx < len(attachments):  # uniform: simple-polynomial routes
                    h_name = attachments[fam_idx][0]
                    want_simple = circuit_poly(product, cap, simple_generic)
                    bg = hatted(core_name, core, root_loops, simple_generic)
                    _, pl, ptri = simple_triples[h_name]
                    # direct substitution into the simple core polynomial
                    got_sub = ratio_substitute(factor._unit_divide_terms(bg, [X], w1), [(X, ptri, pl)])
                    rep_sub.record(got_sub == want_simple, detail=detail)
                    # expansion in powers of x
                    got_exp = factor.simple_rooted_product_poly(bg, ptri, pl, core.p, w1)
                    rep_exp.record(got_exp == want_simple, detail=detail)

                    # zero-root divisibility of the product polynomial
                    s = multiplicity_at(hatted(core_name, core, root_loops, simple_char), 0)
                    if s >= 1:
                        ok, _ = divides(tri_chars[h_name] ** s, circuit_poly(product, cap, simple_char))
                        rep_div.record(ok, detail=detail)

    report = SuiteReport("products", [rep_coal, rep_attach, rep_core, rep_sub, rep_exp, rep_div])
    report.elapsed = time.perf_counter() - t0
    return report


# -- bipartite suite ---------------------------------------------------------------


def _simple_pairs(attachments, mode: WeightMode, cap: int) -> dict[str, tuple[Poly, Poly]]:
    """Simple P(H) and P(H - r) of each named attachment."""
    return {name: factor.attachment_polys(h, mode, cap)[:2] for name, h in attachments}


def run_bipartite_suite(cap: int = SUITE_CAP, seed: int = 20260809,
                        reciprocal_samples: int = 24) -> SuiteReport:
    """Exact identities special to bipartite cores."""
    t0 = time.perf_counter()
    w1 = Poly.variable(wvar(1))
    rep_exp = IdentityReport("restricted-expansion")
    rep_sub = IdentityReport("restricted-substitution")
    rep_one_l = IdentityReport("one-sided-larger-part")
    rep_one_s = IdentityReport("one-sided-smaller-part")
    rep_rec = IdentityReport("reciprocal-isospectral")
    rep_zero = IdentityReport("zero-root-divisibility")
    rep_struct = IdentityReport("bipartite-structure")

    attachments = corpus_attachments()
    generic_pairs = _simple_pairs(attachments, GENERIC, cap)
    char_pairs = _simple_pairs(attachments, CHARACTERISTIC_STANDARD, cap)

    for core_name, core in bipartite_cores():
        parts, p1, p2 = factor.core_parts(core)
        core = core.with_parts(parts)
        delta = factor.bipartite_delta(core, GENERIC, cap)
        bivar = factor.bipartite_bivariate(core, GENERIC, cap)

        # single-parity powers, part-difference divisibility, leading delta 1
        simple = circuit_poly(core, cap, CHARACTERISTIC_STANDARD.simple())
        char_delta = factor.bipartite_delta(core, CHARACTERISTIC_STANDARD, cap)
        rep_struct.record(all(_parity_and_divisibility(simple, p1, p2))
                          and _from_delta(char_delta) == simple, detail=core_name)
        zero_mult = multiplicity_at(simple, 0)
        pairs = [(a, a) for a in attachments]
        pairs += [(attachments[i], attachments[(i + 2) % len(attachments)])
                  for i in range(len(attachments))]
        for (n1, h1), (n2, h2) in pairs:
            total = core.p + p1 * (h1.p - 1) + p2 * (h2.p - 1)
            if total > cap:
                continue
            product, _ = restricted_rooted_product(core, h1, h2)
            want = circuit_poly(product, cap, GENERIC.simple())
            ph1, pl1, ph2, pl2 = *generic_pairs[n1], *generic_pairs[n2]
            got_exp = factor.restricted_product_poly(delta, ph1, pl1, ph2, pl2)
            got_sub = factor.restricted_substitution_poly(bivar, ph1, pl1, ph2, pl2, w1)
            detail = f"{core_name}({n1},{n2})"
            rep_exp.record(got_exp == want, detail=detail)
            rep_sub.record(got_sub == want, detail=detail)

            # zero-root divisibility for the characteristic specialization
            if zero_mult >= p1 - p2:
                c1, d1, c2, d2 = *char_pairs[n1], *char_pairs[n2]
                prod_char = factor.restricted_product_poly(char_delta, c1, d1, c2, d2)
                report = factor.zero_divisibility_report(simple, c1, c2, prod_char, p1, p2)
                rep_zero.record(report.divides, detail=detail)

        # one-sided attachments with a uniform loop weight on the bare part
        for h_name, h in attachments[:4]:
            for b in (-1, 2):
                for larger in (True, False):
                    n_attach = p1 if larger else p2
                    total = core.p + n_attach * (h.p - 1)
                    if total > cap or (not larger and p2 == 0):
                        continue
                    bare = [v for v in range(1, core.p + 1)
                            if (core.parts[v - 1] == 2) == larger]
                    core_loopy = _with_loops(core, {v: b for v in bare})
                    if larger:
                        product, _ = restricted_rooted_product(core_loopy, h, k1())
                    else:
                        product, _ = restricted_rooted_product(core_loopy, k1(), h)
                    want = circuit_poly(product, cap, GENERIC.simple())
                    ph, pl = generic_pairs[h_name]
                    got = factor.one_sided_product_poly(delta, ph, pl, b, GENERIC, larger)
                    rep = rep_one_l if larger else rep_one_s
                    rep.record(got == want, detail=f"{core_name}+{h_name} b={b}")

    # reciprocal products on random equipartite cores
    rng = random.Random(seed)
    attach_pool = corpus_attachments()
    done = 0
    while done < reciprocal_samples:
        n = rng.choice((2, 3))
        edges = [(i, n + j) for i in range(1, n + 1) for j in range(1, n + 1)
                 if rng.random() < 0.6]
        if not edges:
            continue
        core = from_edges(2 * n, edges).with_parts(tuple([1] * n + [2] * n))
        _, h1 = rng.choice(attach_pool)
        _, h2 = rng.choice(attach_pool)
        ok = factor.reciprocal_check(core, h1, h2, CHARACTERISTIC_STANDARD, cap)
        rep_rec.record(ok, detail=f"random n={n}")
        done += 1

    report = SuiteReport("bipartite", [rep_exp, rep_sub, rep_one_l, rep_one_s,
                                       rep_rec, rep_zero, rep_struct])
    report.elapsed = time.perf_counter() - t0
    return report


def _parity_and_divisibility(simple: Poly, p1: int, p2: int) -> tuple[bool, bool]:
    """Whether a simple polynomial has powers of one parity only, and whether
    x**(p1 - p2) divides it."""
    coeffs = simple.univariate_coeffs(X)
    return not any(coeffs[1::2]), not any(coeffs[len(coeffs) - (p1 - p2):])


def _from_delta(delta: factor.BipartiteExpansion) -> Poly:
    """sum_k delta_k * x**(p - 2k): the simple polynomial an expansion stands for."""
    p = delta.p1 + delta.p2
    return sum((d * Poly.monomial([(X, p - 2 * k)]) for k, d in enumerate(delta.delta)), Poly.zero())


def run_bipartite_structure_suite(max_vertices: int = 8, cap: int = SUITE_CAP) -> SuiteReport:
    """Structural facts for every loopless bipartite graph up to a size bound:
    single-parity simple polynomial, divisibility by the part-difference power,
    synchronous bivariate expansion with leading coefficient 1."""
    t0 = time.perf_counter()
    rep_parity = IdentityReport("bipartite-parity")
    rep_div = IdentityReport("part-difference-divisibility")
    rep_sync = IdentityReport("synchronous-expansion")
    mode = CHARACTERISTIC_STANDARD
    for g, p1, p2 in bipartite_graph_classes(max_vertices):
        simple = circuit_poly(g, cap, mode.simple())
        parity_ok, divisible = _parity_and_divisibility(simple, p1, p2)
        detail = f"p1={p1} p2={p2}"
        rep_parity.record(parity_ok, detail=detail)
        rep_div.record(divisible, detail=detail)
        try:
            delta = factor.bipartite_delta(g, mode, cap)
            rep_sync.record(delta.delta[0] == Poly.one() and _from_delta(delta) == simple,
                            detail=detail)
        except ValueError as exc:
            rep_sync.record(False, detail=str(exc))
    report = SuiteReport("bipartite-structure", [rep_parity, rep_div, rep_sync])
    report.elapsed = time.perf_counter() - t0
    return report


def bipartite_graph_classes(max_vertices: int = 8):
    """All loopless bipartite graphs with at most max_vertices vertices, one
    representative per part-preserving isomorphism class."""
    from itertools import permutations

    yield k1(rooted=False).with_parts((1,)), 1, 0
    for p2 in range(1, max_vertices // 2 + 1):
        for p1 in range(p2, max_vertices - p2 + 1):
            tables = []
            for pm in permutations(range(p2)):
                table = [0] * (1 << p2)
                for row in range(1 << p2):
                    out = 0
                    for c in range(p2):
                        if row >> c & 1:
                            out |= 1 << pm[c]
                    table[row] = out
                tables.append(table)
            seen = set()
            row_mask = (1 << p2) - 1
            for mask in range(1 << (p1 * p2)):
                rows = [(mask >> (r * p2)) & row_mask for r in range(p1)]
                key = min(tuple(sorted(table[row] for row in rows)) for table in tables)
                if key in seen:
                    continue
                seen.add(key)
                edges = [(r + 1, p1 + c + 1)
                         for r in range(p1) for c in range(p2) if rows[r] >> c & 1]
                parts = tuple([1] * p1 + [2] * p2)
                yield from_edges(p1 + p2, edges).with_parts(parts), p1, p2


# -- spectral suite -------------------------------------------------------------------


def run_spectral_suite(cap: int = SUITE_CAP, tol: float = 1e-8) -> SuiteReport:
    """Numeric root-product routes against the exact expansions."""
    t0 = time.perf_counter()
    rep_roots = IdentityReport("core-roots-product")
    rep_loops = IdentityReport("loop-attachment-product")
    rep_mu = IdentityReport("squared-roots-product")
    rep_one = IdentityReport("one-sided-squared-roots")
    rep_join = IdentityReport("edge-join-product")
    modes = (CHARACTERISTIC_STANDARD, PERMANENTAL)
    attachments = corpus_attachments()
    graphs = dict(attachments)

    # P(H~) and P(H - r) of each attachment, by (attachment, mode), for both
    # halves: they depend on neither the core nor the root loop, which changes
    # only P(H), rebuilt from the two; nor do the loop-stripped core and its
    # roots depend on the loop variant
    constituents: dict[tuple, tuple[Poly, Poly]] = {}

    def pair(h_name: str, loop, mode: WeightMode) -> tuple[Poly, Poly]:
        """P(H) and P(H - r) of the attachment with root loop weight `loop`."""
        key = h_name, mode
        if key not in constituents:
            constituents[key] = factor.attachment_polys(graphs[h_name], mode, cap)[1:]
        pl, ptri = constituents[key]
        return factor._shift_root_loop(ptri, pl, loop, mode), pl

    for core_name, core_base in corpus_cores():
        free = {}
        for mode in modes:
            bg_free = circuit_poly(strip_all_loops(core_base), cap, mode.simple())
            free[mode] = bg_free, spectra.roots(bg_free)
        for loops in loop_variants(core_base.p):
            core = _with_loops(core_base, loops)
            for mode in modes:
                bg_free, free_roots = free[mode]
                for h_name, h in attachments:
                    if core.p + core.p * (h.p - 1) > cap:
                        continue
                    loop_values = {core.loop(v) + h.loop(h.root) for v in range(1, core.p + 1)}
                    if len(loop_values) != 1:
                        continue  # root-product factors need a uniform unit
                    loop = loop_values.pop()
                    hb = attach_root_loop(h, loop)
                    ph_b, pl = pair(h_name, loop, mode)
                    exact = factor.simple_rooted_product_poly(bg_free, ph_b, pl, core.p,
                                                              mode.w1)
                    dev = coeff_deviation(exact, factor.spectral_product_form(
                        free_roots, ph_b, pl, mode.w1))
                    rep_roots.record(dev <= tol, dev, f"{core_name}+{h_name} {mode.name}")
                    dev = coeff_deviation(exact, factor.spectral_product_from_loops(
                        free_roots, hb, mode, cap))
                    rep_loops.record(dev <= tol, dev, f"{core_name}+{h_name} {mode.name}")

    for core_name, core in bipartite_cores():
        parts, p1, p2 = factor.core_parts(core)
        if p2 == 0:
            continue
        for mode in modes:
            delta = factor.bipartite_delta(core, mode, cap)
            mu = factor.mu_squares(delta)
            for n1, n2 in (("k2", "k2"), ("k1", "k2"), ("p3-end", "k1")):
                h1, h2 = graphs[n1], graphs[n2]
                if core.p + p1 * (h1.p - 1) + p2 * (h2.p - 1) > cap:
                    continue
                ph1, pl1 = pair(n1, h1.loop(h1.root), mode)
                ph2, pl2 = pair(n2, h2.loop(h2.root), mode)
                exact = factor.restricted_product_poly(delta, ph1, pl1, ph2, pl2)
                detail = f"{core_name}({n1},{n2}) {mode.name}"
                dev = coeff_deviation(exact, factor.restricted_spectral_form(
                    mu.root_set, ph1, pl1, ph2, pl2, p1, p2))
                rep_mu.record(dev <= tol, dev, detail)
                dev = coeff_deviation(exact, factor.restricted_product_from_edge_join(
                    mu.root_set, h1, h2, mode, p1, p2, cap))
                rep_join.record(dev <= tol, dev, detail)

            # one-sided squared-root forms with loop-weighted bare vertices
            for b in (0, 2):
                for larger in (True, False):
                    ph, pl = pair("k2", 0, mode)
                    exact = factor.one_sided_product_poly(delta, ph, pl, b, mode, larger)
                    unit = Poly.variable(X) * mode.w1 + mode.sigma_b * b * mode.w1
                    if larger:
                        numeric = factor.restricted_spectral_form(
                            mu.root_set, ph, pl, unit, Poly.one(), p1, p2)
                    else:
                        numeric = factor.restricted_spectral_form(
                            mu.root_set, unit, Poly.one(), ph, pl, p1, p2)
                    dev = coeff_deviation(exact, numeric)
                    rep_one.record(dev <= tol, dev, f"{core_name} b={b} {mode.name}")

    report = SuiteReport("spectral", [rep_roots, rep_loops, rep_mu, rep_one, rep_join])
    report.elapsed = time.perf_counter() - t0
    return report


# -- dendrimer suite ------------------------------------------------------------------


def run_dendrimer_suite(cap: int = SUITE_CAP, tol: float = 1e-8) -> SuiteReport:
    t0 = time.perf_counter()
    rep_path = IdentityReport("path-eigenvalues")
    rep_monoid = IdentityReport("branch-monoid")
    rep_scale = IdentityReport("factorized-scaling")
    mode = CHARACTERISTIC_STANDARD
    import math

    twig = complete(2).with_root(1)
    for j in range(0, 9):
        spec = DendrimerSpec(core=k1(rooted=False), unit=twig, attach_sites=(2,), generations=j)
        factored = factor.dendrimer_factored(spec, mode)
        rs = spectra.roots(factored)
        n = j + 1
        expect = sorted((2 * math.cos(k * math.pi / (n + 1)) for k in range(1, n + 1)),
                        reverse=True)
        got = sorted((v.real for v in rs.expanded()), reverse=True)
        dev = max(abs(a - b) for a, b in zip(expect, got))
        built_ok = factored.expand() == char_poly_det(path(n))
        rep_path.record(dev <= tol and built_ok, dev, f"generations={j}")

    branch_units = [(complete(2).with_root(1), (2,), [(0, 3), (2, 3), (3, 2), (1, 4)]),
                    (path(3).with_root(2), (1, 3), [(0, 2), (1, 1), (2, 0)])]
    for unit, sites, combos in branch_units:
        for j, k in combos:
            a = monodendron(unit, sites, j)
            b = monodendron(unit, sites, k)
            composed = monodendron_star(a, b)
            direct = monodendron(unit, sites, j + k)
            pa = circuit_poly(composed.graph, cap, GENERIC.simple())
            pb = circuit_poly(direct.graph, cap, GENERIC.simple())
            rep_monoid.record(pa == pb and composed.graph.p == direct.graph.p,
                              detail=f"d={len(sites)} {j}+{k}")

    big = DendrimerSpec(core=k1(rooted=False), unit=unit, attach_sites=sites, generations=9)
    start = time.perf_counter()
    factored = factor.dendrimer_factored(big, mode)
    rs = spectra.roots(factored)
    elapsed = time.perf_counter() - start
    degree = factored.degree()
    rep_scale.record(degree == 1023 and rs.source_degree == 1023 and elapsed < 10.0,
                     detail=f"degree={degree} elapsed={elapsed:.2f}s")

    deep = DendrimerSpec(core=k1(rooted=False), unit=twig, attach_sites=(2,), generations=12)
    rs = spectra.dendrimer_spectrum(deep, mode)
    rep_scale.record(rs.source_degree == 13, detail="deep path")

    report = SuiteReport("dendrimer", [rep_path, rep_monoid, rep_scale])
    report.elapsed = time.perf_counter() - t0
    return report


SUITES = {
    "products": run_products_suite,
    "bipartite": run_bipartite_suite,
    "spectral": run_spectral_suite,
    "dendrimer": run_dendrimer_suite,
}


def run_suites(names, cap: int = SUITE_CAP, tol: float = 1e-8) -> list[SuiteReport]:
    """Run the named suites; tol reaches the numeric ones, the exact ones have none."""
    return [SUITES[name](cap=cap) if name in ("products", "bipartite")
            else SUITES[name](cap=cap, tol=tol) for name in names]
