"""Acceptance criteria, one test per criterion, each printing a status line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole module is also part of the default suite.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from _brute import (brute_char_poly, cycle_index_sym, permanental_poly_check, random_graph,
                    six_vertex_tree)
from rootedpoly import factor, verify
from rootedpoly.factor import (bipartite_bivariate, bipartite_delta, dendrimer_spectrum,
                               restricted_product_poly, restricted_substitution_poly)
from rootedpoly.graph import (DendrimerSpec, Graph, complete, delete_root, k1, path,
                              restricted_rooted_product)
from rootedpoly.oracle import (CHARACTERISTIC_UNIFORM, CHARACTERISTIC_STANDARD, UNDIRECTED_COVERS,
                               PERMANENTAL, circuit_poly, simple_circuit_poly,
                               specialize)
from rootedpoly.poly import parse_poly, xvar
from rootedpoly.spectra import roots

CHAR = CHARACTERISTIC_STANDARD
TWIG = complete(2).with_root(1)
FLAGSHIP = "x^9 - 8*x^7 + 18*x^5 - 12*x^3"


def _report(n: int, name: str, ok: bool, extra: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n} {name}: {status}{' ' + extra if extra else ''}")
    assert ok, f"criterion {n} ({name}) failed"


def _constituents(h1, h2, mode, cap=9):
    ph1 = simple_circuit_poly(h1, mode, cap)
    pl1 = simple_circuit_poly(delete_root(h1), mode, cap)
    ph2 = simple_circuit_poly(h2, mode, cap)
    pl2 = simple_circuit_poly(delete_root(h2), mode, cap)
    return ph1, pl1, ph2, pl2


def test_criterion_1_flagship_reproduction():
    start = time.perf_counter()
    tree = six_vertex_tree()
    want = parse_poly(FLAGSHIP)

    product, _ = restricted_rooted_product(tree, k1(), TWIG)
    route_a = simple_circuit_poly(product, CHAR, cap=9)
    ph1, pl1, ph2, pl2 = _constituents(k1(), TWIG, CHAR)
    delta = bipartite_delta(tree, CHAR)
    route_b = restricted_product_poly(delta, ph1, pl1, ph2, pl2)
    route_c = restricted_substitution_poly(bipartite_bivariate(tree, CHAR),
                                           ph1, pl1, ph2, pl2)
    elapsed = time.perf_counter() - start
    ok = (route_a == want and route_b == want and route_c == want
          and str(route_a) == str(route_b) == str(route_c) == FLAGSHIP
          and elapsed < 5.0)
    _report(1, "flagship polynomial via three routes", ok, f"({elapsed:.2f}s)")


def test_criterion_2_reciprocal_isospectrality():
    start = time.perf_counter()
    tree = six_vertex_tree()
    want = parse_poly(FLAGSHIP)
    swapped, _ = restricted_rooted_product(tree, TWIG, k1())
    ok = simple_circuit_poly(swapped, CHAR, cap=9) == want

    rng = random.Random(193)
    attach = [k1(), TWIG, path(3).with_root(1), path(3).with_root(2), k1(loop=1)]
    count = 0
    while count < 20:
        n = rng.choice((2, 3))
        edges = [(i, n + j) for i in range(1, n + 1) for j in range(1, n + 1)
                 if rng.random() < 0.6]
        if not edges:
            continue
        core = Graph(p=2 * n, arcs={}, parts=tuple([1] * n + [2] * n))
        arcs = {}
        for a, b in edges:
            arcs[(a, b)] = 1
            arcs[(b, a)] = 1
        core = Graph(p=2 * n, arcs=arcs, parts=core.parts)
        h1, h2 = rng.choice(attach), rng.choice(attach)
        ok = ok and factor.reciprocal_check(core, h1, h2, CHAR, cap=13)
        count += 1
    elapsed = time.perf_counter() - start
    _report(2, "reciprocal products are isospectral", ok and elapsed < 30.0,
            f"(20 random instances, {elapsed:.2f}s)")


def test_criterion_3_root_reproduction():
    rs = roots(parse_poly(FLAGSHIP))
    printed = [2.175, 1.414, 1.126, 0.0, -1.126, -1.414, -2.175]
    mults = [1, 1, 1, 3, 1, 1, 1]
    ok = len(rs.roots) == 7
    for (value, mult), want, want_m in zip(rs.roots, printed, mults):
        ok = ok and abs(value.real - want) < 1e-3 and abs(value.imag) < 1e-9
        ok = ok and mult == want_m
    ok = ok and rs.roots[3] == (0, 3)
    _report(3, "printed root list reproduced", ok)


@pytest.fixture(scope="module")
def exact_suites():
    """The products and bipartite suite reports, run once for criteria 4 and 7,
    and the seconds both took."""
    start = time.perf_counter()
    products = verify.run_products_suite()
    bipartite = verify.run_bipartite_suite()
    return products, bipartite, time.perf_counter() - start


def test_criterion_4_exact_equivalence_suites(exact_suites):
    products, bipartite, elapsed = exact_suites
    ok = products.passed and bipartite.passed and elapsed < 300.0
    detail = "; ".join(f"{r.identity}:{r.instances}" for r in
                       products.identities + bipartite.identities)
    _report(4, "oracle equals every exact composition route", ok,
            f"({detail}, {elapsed:.1f}s)")


def test_criterion_5_spectral_routes():
    report = verify.run_spectral_suite()
    worst = max(r.max_deviation for r in report.identities)
    _report(5, "numeric root routes within 1e-8 of exact", report.passed and worst <= 1e-8,
            f"(max deviation {worst:.2e})")


def test_criterion_6_bipartite_structure():
    report = verify.run_bipartite_structure_suite()
    counts = {r.identity: r.instances for r in report.identities}
    # 792 part-preserving classes of bipartite graphs on up to 8 vertices
    _report(6, "bipartite parity, divisibility and synchronous expansion",
            report.passed and set(counts.values()) == {792}, f"({counts}, {report.elapsed:.1f}s)")


def test_criterion_7_divisibility(exact_suites):
    products, bipartite, _ = exact_suites
    by_id = {r.identity: r for r in products.identities}
    lemma = by_id["attachment-power-divisibility"]
    by_id.update({r.identity: r for r in bipartite.identities})
    zero = by_id["zero-root-divisibility"]
    ok = lemma.status == "pass" and zero.status == "pass"
    _report(7, "exact divisibility from zero core roots", ok,
            f"({lemma.instances}+{zero.instances} instances)")


def test_criterion_8_cross_checks():
    graphs = [g for _, g in verify.corpus_cores()]
    graphs += [Graph(p=g.p, arcs=g.arcs, loops={1: Fraction(1, 2), g.p: -2})
               for g in graphs if g.p >= 2]
    rng = random.Random(77)
    graphs += [random_graph(rng, rng.randint(2, 6), directed=True, loops=True)
               for _ in range(20)]
    tree = six_vertex_tree()
    product, _ = restricted_rooted_product(tree, k1(), TWIG)
    graphs.append(product)

    ok = True
    for g in graphs:
        ok = ok and simple_circuit_poly(g, CHAR, cap=9) == brute_char_poly(g)
        ok = ok and simple_circuit_poly(g, PERMANENTAL, cap=9) == permanental_poly_check(g)

    for p in range(1, 8):
        full = circuit_poly(complete(p), cap=p)
        at_one = full.substitute_many({xvar(i): 1 for i in range(1, p + 1)})
        ok = ok and at_one == math.factorial(p) * cycle_index_sym(p)

    # documented mismatches, asserted as mismatches on the triangle
    covers = specialize(circuit_poly(complete(3)), UNDIRECTED_COVERS, complete(3))
    ok = ok and covers != 6 * cycle_index_sym(3)
    ok = ok and covers == parse_poly("w1^3 + 3*w1*w2 + w3")
    literal = simple_circuit_poly(complete(3), CHARACTERISTIC_UNIFORM)
    det_neg = brute_char_poly(complete(3)) * (-1) ** 3
    ok = ok and literal != det_neg
    ok = ok and literal == parse_poly("-x^3 + 3*x - 2")
    _report(8, "determinant, permanent and cycle-index cross-checks", ok,
            f"({len(graphs)} graphs)")


def test_criterion_9_dendrimer_scaling():
    ok = True
    for j in range(0, 9):
        spec = DendrimerSpec(core=k1(rooted=False), unit=TWIG,
                             attach_sites=(2,), generations=j)
        n = j + 1
        got = sorted((v.real for v in dendrimer_spectrum(spec, CHAR).expanded()),
                     reverse=True)
        expect = sorted((2 * math.cos(k * math.pi / (n + 1)) for k in range(1, n + 1)),
                        reverse=True)
        ok = ok and max(abs(a - b) for a, b in zip(got, expect)) < 1e-8
        ok = ok and factor.dendrimer_poly(spec, CHAR) == brute_char_poly(path(n))

    start = time.perf_counter()
    deep = DendrimerSpec(core=k1(rooted=False), unit=TWIG, attach_sites=(2,),
                         generations=12)
    rs = dendrimer_spectrum(deep, CHAR)
    ok = ok and rs.source_degree == 13
    big = DendrimerSpec(core=k1(rooted=False), unit=path(3).with_root(2),
                        attach_sites=(1, 3), generations=9)
    rs = dendrimer_spectrum(big, CHAR)
    elapsed = time.perf_counter() - start
    ok = ok and rs.source_degree == 1023 and elapsed < 10.0
    _report(9, "dendrimer spectra by factorization only", ok,
            f"(1023 vertices in {elapsed:.2f}s)")
