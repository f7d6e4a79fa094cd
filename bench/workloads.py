"""The four workloads: their inputs, operations and output checks.

A workload is a fixed list of operations, one round, that the runner
repeats.  Inputs depend only on the seed and are written as JSON files
before the first round; the program reads nothing else.  Operations call
the program's public entry points in-process: rootedpoly.cli.main with
stdout captured, and rootedpoly.factor.dendrimer_poly, which has no CLI
command.  The first output of every operation is checked, after the timed
rounds, against a computation in reference.py or a property the method must
have; every later round's output must equal it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref
import speed
from reference import CheckError


class OpFailed(Exception):
    """The program returned a non-zero exit code."""


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]
    # the part of an output that must repeat exactly from round to round
    same: Callable[[object], object] | None = None
    # the one operation that fails every time until the program is mended
    may_fail: bool = False
    first: object = None

    def record(self, output) -> None:
        """Keep the first output for check(); every later one must equal it."""
        same = self.same or (lambda out: out)
        if self.first is None:
            self.first = output
        elif same(output) != same(self.first):
            raise CheckError("output differs from the one of an earlier round")


def cli_op(name: str, argv: list[str], check: Callable[[str], None], may_fail: bool = False) -> Op:
    from rootedpoly import cli

    def run() -> str:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            raise OpFailed(f"exit code {code}: {err.getvalue().strip()}")
        return out.getvalue()

    return Op(name, run, check, may_fail=may_fail)


def write_json(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


# -- parsing the program's output -------------------------------------------


def poly_terms(text: str) -> list[tuple[Fraction, dict[str, int]]]:
    return [(Fraction(t["coeff"]), t["monomial"]) for t in json.loads(text)["terms"]]


def univariate(text: str) -> list[Fraction]:
    """Coefficients in x, lowest degree first, of `poly --format json` output."""
    coeffs: dict[int, Fraction] = {}
    for c, mono in poly_terms(text):
        if set(mono) - {"x"}:
            raise CheckError(f"expected a polynomial in x, got monomial {mono}")
        coeffs[mono.get("x", 0)] = c
    deg = max(coeffs, default=-1)
    return [coeffs.get(k, Fraction(0)) for k in range(deg + 1)]


def root_list(text: str) -> tuple[list[tuple[complex, int]], float]:
    doc = json.loads(text)
    found = [(complex(float(r["re"]), float(r["im"])), r["multiplicity"]) for r in doc["roots"]]
    return found, doc["cluster_tol"]


def expect_equal(got, want, what: str) -> None:
    if got != want:
        raise CheckError(f"{what}: program {got} != reference {want}")


# -- random graphs ---------------------------------------------------------


def rational(rng: random.Random) -> str:
    num = rng.choice([-1, 1]) * rng.randint(1, 5)
    return f"{num}/{rng.randint(1, 4)}"


# Dense graphs draw their weights from this fixed multiset in a random order,
# so that coefficient sizes, and with them the cost, do not depend on the seed.
RATIONALS = ["1/2", "-3/4", "5/3", "-2", "3/2", "-1/3", "4", "-5/2", "2/3", "-1", "3", "-4/3"]


def shuffled_rationals(rng: random.Random, count: int) -> list[str]:
    out = [RATIONALS[i % len(RATIONALS)] for i in range(count)]
    rng.shuffle(out)
    return out


def circulant(n: int, offsets: list[int], directed: bool) -> list[tuple[int, int]]:
    """Arcs i -> i + d (mod n) for each offset d; as edges when undirected."""
    pairs = {(i, (i - 1 + d) % n + 1) for i in range(1, n + 1) for d in offsets}
    if not directed:
        pairs = {(min(i, j), max(i, j)) for i, j in pairs}
    return sorted(pairs)


def graph_doc(rng: random.Random, shape: tuple, weighted: bool, loops: int, loop_weights: str) -> dict:
    """A graph of the given shape with rational weights if `weighted` and
    weights on `loops` loops.

    Shape ("circulant", n, offsets, directed) fixes the numbering and the
    loop positions (every other vertex from 1) and spreads the multiset
    RATIONALS over the arcs in a random order, so that the cost of an
    operation hardly depends on the seed.  Shape ("random", n, m, directed)
    draws m arcs or edges, their weights and the loop positions uniformly.
    """
    kind, n, param, directed = shape
    if kind == "circulant":
        pairs = circulant(n, param, directed)
        at = list(range(1, n + 1, 2))[:loops]
        weights = shuffled_rationals(rng, len(pairs))
    else:
        pairs = sorted(rng.sample([(i, j) for i in range(1, n + 1) for j in range(1, n + 1)
                                   if (i != j if directed else i < j)], param))
        at = sorted(rng.sample(range(1, n + 1), loops))
        weights = [rational(rng) for _ in pairs]
    key, a, b = ("arcs", "from", "to") if directed else ("edges", "a", "b")
    doc: dict = {"p": n, key: [{a: i, b: j, "w": w if weighted else 1}
                               for (i, j), w in zip(pairs, weights)]}
    if loops:
        doc["loops"] = [{"at": v, "b": rational(rng) if loop_weights == "rational"
                         else rng.choice([-2, -1, 1, 2, 3])} for v in at]
    return doc


def bipartite_core(rng: random.Random, n1: int, n2: int, extra: int) -> dict:
    """A connected bipartite core: a random spanning tree of K(n1, n2) plus
    `extra` more edges; part 1 (the larger) holds vertices 1..n1."""
    part = {v: 1 if v <= n1 else 2 for v in range(1, n1 + n2 + 1)}
    placed = [rng.randint(1, n1)]
    edges = set()
    while len(placed) < n1 + n2:
        u, v = rng.choice([(u, v) for u in placed for v in part
                           if v not in placed and part[u] != part[v]])
        edges.add((min(u, v), max(u, v)))
        placed.append(v)
    rest = sorted((a, b) for a in range(1, n1 + 1) for b in range(n1 + 1, n1 + n2 + 1)
                  if (a, b) not in edges)
    edges |= set(rng.sample(rest, min(extra, len(rest))))
    return {"p": n1 + n2, "edges": [{"a": a, "b": b} for a, b in sorted(edges)],
            "parts": [part[v] for v in sorted(part)]}


# -- checks ----------------------------------------------------------------


def check_simple(graph: tuple, mode: str) -> Callable[[str], None]:
    n, arcs, loops = graph

    def check(text: str) -> None:
        if mode == "characteristic-standard":
            want = ref.char_poly(n, arcs, loops)
        elif mode == "permanental":
            want = ref.perm_poly(n, arcs, loops)
        elif mode == "matching-plus":
            want = ref.matching_poly(n, arcs, loops, sign=1)
        else:
            want = ref.matching_poly(n, arcs, loops, sign=-1)
        expect_equal(univariate(text), want, f"{mode} polynomial")

    return check


def check_full_generic(graph: tuple) -> Callable[[str], None]:
    """The full generic polynomial at w1 = 1, w_l = -1 (l >= 2) and
    x_i = t - 2 b_i is det(tI - A - diag b); compared at t = 0..n."""
    n, arcs, loops = graph

    def check(text: str) -> None:
        terms = poly_terms(text)
        want = ref.char_poly(n, arcs, loops)
        for t in range(n + 1):
            total = Fraction(0)
            for c, mono in terms:
                for var, e in mono.items():
                    i = int(var[1:])
                    if var[0] == "w":
                        c *= 1 if i == 1 else (-1) ** e
                    elif var[0] == "x":
                        c *= (t - 2 * Fraction(loops.get(i, 0))) ** e
                    else:
                        raise CheckError(f"unexpected variable {var}")
                total += c
            expect_equal(total, ref.evaluate(want, Fraction(t)), f"generic polynomial at t={t}")

    return check


def check_full_characteristic(graph: tuple) -> Callable[[str], None]:
    """The full characteristic-standard polynomial at x_i = t is det(tI - A - diag b)."""
    n, arcs, loops = graph

    def check(text: str) -> None:
        terms = poly_terms(text)
        want = ref.char_poly(n, arcs, loops)
        for t in range(n + 1):
            total = Fraction(0)
            for c, mono in terms:
                if any(not var.startswith("x") for var in mono):
                    raise CheckError(f"unexpected monomial {mono}")
                total += c * t ** sum(mono.values())
            expect_equal(total, ref.evaluate(want, Fraction(t)), f"full characteristic at t={t}")

    return check


def check_spectrum(graph: tuple) -> Callable[[str], None]:
    n, arcs, loops = graph

    def check(text: str) -> None:
        found, _ = root_list(text)
        m = ref.dense_matrix(n, arcs, loops)
        scale = max(1.0, float(np.abs(m).sum(axis=1).max()))
        ref.match_spectrum(found, np.linalg.eigvals(m), scale)

    return check


def check_overflow(text: str) -> None:
    """x^2 - 2^1200 has the roots +-2^600."""
    found, _ = root_list(text)
    values = sorted(v.real for v, m in found for _ in range(m))
    want = [-2.0 ** 600, 2.0 ** 600]
    if len(values) != 2 or any(abs(a - b) > 1e-9 * abs(b) for a, b in zip(values, want)):
        raise CheckError(f"roots {values}, expected +-2^600")


def check_product(want: tuple, path: str) -> Callable[[str], None]:
    """The product file must hold a graph with the characteristic polynomial
    of the restricted product the benchmark built itself."""

    def check(_: str) -> None:
        got = ref.graph_from_doc(json.loads(Path(path).read_text()))
        expect_equal(got[0], want[0], "product vertex count")
        expect_equal(ref.char_poly(*got), ref.char_poly(*want), "product characteristic polynomial")

    return check


def restricted_product(core: dict, h1: dict, h2: dict) -> tuple[int, dict, dict]:
    """h1 rooted at every part-1 core vertex, h2 at every part-2 vertex."""
    n, arcs, loops = ref.graph_from_doc(core)
    arcs, loops = dict(arcs), dict(loops)
    for v, part in enumerate(core["parts"], start=1):
        h = h1 if part == 1 else h2
        hn, harcs, hloops = ref.graph_from_doc(h)
        label = {h["root"]: v}
        for u in range(1, hn + 1):
            if u != h["root"]:
                n += 1
                label[u] = n
        for (i, j), w in harcs.items():
            arcs[(label[i], label[j])] = w
        for u, b in hloops.items():
            loops[label[u]] = loops.get(label[u], 0) + b
    return n, arcs, loops


# -- small-graphs ----------------------------------------------------------

# The 2-vertex graph 1 -> 2 of weight 2^1200, 2 -> 1 of weight 1.  Its
# spectrum is +-2^600, both finite doubles; the program overflows while
# converting the coefficients to floats.
OVERFLOW_GRAPH = {"p": 2, "arcs": [{"from": 1, "to": 2, "w": 2 ** 1200}, {"from": 2, "to": 1, "w": 1}]}

# (label, shape, rational weights, loops, loop weights, commands).  Commands
# are poly modes, in the simple form unless prefixed "full:", and "spectrum".
# The dense shapes carry most of the time; K9 - C9 is K9 without a
# Hamiltonian cycle, K8 - PM is K8 without a perfect matching.
GRAPH_CLASSES = [
    ("dense-undirected", ("circulant", 9, [2, 3, 4], False), False, 0, "int",
     ["characteristic-standard", "spectrum"]),
    ("dense-undirected-loops", ("circulant", 8, [1, 2, 3], False), False, 3, "int",
     ["characteristic-standard", "matching-minus", "spectrum", "full:characteristic-standard"]),
    ("dense-directed-rational", ("circulant", 8, [1, 2, 3, 5, 6], True), True, 2, "rational",
     ["full:generic", "full:characteristic-standard", "permanental", "spectrum"]),
    ("dense-undirected-rational", ("circulant", 8, [1, 2, 3], False), True, 0, "int",
     ["permanental", "matching-plus", "spectrum"]),
    ("sparse-undirected-rational", ("random", 9, 13, False), True, 0, "int", ["spectrum"]),
    ("sparse-directed-loops", ("random", 9, 20, True), True, 3, "rational",
     ["characteristic-standard", "matching-minus"]),
]
SMOKE_CLASSES = [
    ("dense-undirected", ("circulant", 5, [1, 2], False), False, 0, "int",
     ["characteristic-standard", "permanental", "matching-plus", "spectrum"]),
    ("dense-undirected-loops", ("circulant", 4, [1], False), False, 2, "int",
     ["characteristic-standard", "matching-minus", "spectrum", "full:generic"]),
    ("dense-directed-rational", ("circulant", 4, [1, 2], True), True, 2, "rational",
     ["full:generic", "full:characteristic-standard", "permanental", "spectrum"]),
    ("sparse-directed-loops", ("random", 5, 6, True), True, 2, "rational",
     ["characteristic-standard", "matching-minus"]),
]


def small_graphs(rng: random.Random, work: Path, smoke: bool) -> list[Op]:
    ops: list[Op] = []
    for label, shape, weighted, nloops, loop_weights, commands in (
            SMOKE_CLASSES if smoke else GRAPH_CLASSES):
        doc = graph_doc(rng, shape, weighted, nloops, loop_weights)
        path = write_json(work / f"{label}.json", doc)
        graph = ref.graph_from_doc(doc)
        for command in commands:
            if command == "spectrum":
                ops.append(cli_op(f"{label}/spectrum", ["spectrum", path, "--format", "json"],
                                  check_spectrum(graph)))
                continue
            full, mode = command.startswith("full:"), command.split(":")[-1]
            argv = ["poly", path, "--mode", mode, "--format", "json"] + (["--full"] if full else [])
            if not full:
                check = check_simple(graph, mode)
            elif mode == "generic":
                check = check_full_generic(graph)
            else:
                check = check_full_characteristic(graph)
            ops.append(cli_op(f"{label}/poly-{command.replace(':', '-')}", argv, check))

    # a restricted product of a random bipartite core: build it, then take its poly
    core = bipartite_core(rng, 3, 2, extra=1)
    h1 = {"p": 2, "root": 1, "edges": [{"a": 1, "b": 2, "w": rational(rng)}],
          "loops": [{"at": 1, "b": rng.choice([-1, 1, 2])}]}
    h2 = {"p": 1, "root": 1, "loops": [{"at": 1, "b": rng.choice([-1, 1, 2])}]}
    core_path, h1_path, h2_path = (write_json(work / f"product-{name}.json", d)
                                   for name, d in (("core", core), ("h1", h1), ("h2", h2)))
    out = str(work / "product-result.json")
    built = restricted_product(core, h1, h2)
    ops.append(cli_op("product/restricted", ["product", core_path, "--restricted", "--h1", h1_path,
                                             "--h2", h2_path, "-o", out], check_product(built, out)))
    ops.append(cli_op("product/poly-characteristic-standard",
                      ["poly", out, "--mode", "characteristic-standard", "--format", "json"],
                      check_simple(built, "characteristic-standard")))

    path = write_json(work / "overflow.json", OVERFLOW_GRAPH)
    ops.append(cli_op("overflow/spectrum", ["spectrum", path, "--format", "json"], check_overflow,
                      may_fail=True))
    return ops


# -- dendrimers ------------------------------------------------------------

UNITS = {
    "path3": ({"p": 3, "edges": [{"a": 1, "b": 2}, {"a": 2, "b": 3}]}, 2, [1, 3]),
    "star3": ({"p": 4, "edges": [{"a": 1, "b": 2}, {"a": 1, "b": 3}, {"a": 1, "b": 4}]}, 1, [2, 3, 4]),
    "K3": ({"p": 3, "edges": [{"a": 1, "b": 2}, {"a": 1, "b": 3}, {"a": 2, "b": 3}]}, 1, [2, 3]),
    "C4": ({"p": 4, "edges": [{"a": 1, "b": 2}, {"a": 2, "b": 3}, {"a": 3, "b": 4},
                              {"a": 4, "b": 1}]}, 1, [2, 4]),
}
CORES = {
    "K1": {"p": 1},
    "P2": {"p": 2, "edges": [{"a": 1, "b": 2}]},
    "K3": {"p": 3, "edges": [{"a": 1, "b": 2}, {"a": 1, "b": 3}, {"a": 2, "b": 3}]},
    "C4": {"p": 4, "edges": [{"a": 1, "b": 2}, {"a": 2, "b": 3}, {"a": 3, "b": 4}, {"a": 4, "b": 1}]},
}

# (unit, core, generations); the vertex counts are in README.md
SPECTRUM_SPECS = [("C4", "K3", 6), ("star3", "P2", 5), ("C4", "C4", 6), ("path3", "K1", 9),
                  ("star3", "K1", 6)]
SPECTRUM_SMOKE = [("C4", "K3", 1), ("star3", "P2", 1), ("path3", "K1", 3), ("K3", "P2", 2)]
POLY_SPECS = [("path3", "K1", 10), ("star3", "K1", 7), ("path3", "P2", 10)]
POLY_SMOKE = [("path3", "K1", 3), ("star3", "P2", 2)]


def relabel(rng: random.Random, doc: dict) -> tuple[dict, dict[int, int]]:
    """The same graph under a random numbering of its vertices."""
    perm = list(range(1, doc["p"] + 1))
    rng.shuffle(perm)
    label = {v: perm[v - 1] for v in range(1, doc["p"] + 1)}
    out = {"p": doc["p"]}
    if "edges" in doc:
        out["edges"] = [{"a": label[e["a"]], "b": label[e["b"]]} for e in doc["edges"]]
        rng.shuffle(out["edges"])
    return out, label


def dendrimer_spec(rng: random.Random, unit: str, core: str, generations: int) -> dict:
    unit_doc, root, sites = UNITS[unit]
    unit_doc, label = relabel(rng, unit_doc)
    unit_doc["root"] = label[root]
    sites = [label[s] for s in sites]
    rng.shuffle(sites)
    core_doc, _ = relabel(rng, CORES[core])
    return {"core": core_doc, "unit": unit_doc, "attach_sites": sites, "generations": generations}


def check_dendrimer_spectrum(spec: dict) -> Callable[[str], None]:
    def check(text: str) -> None:
        found, tol = root_list(text)
        n, arcs, loops = ref.dendrimer(spec)
        expect_equal(sum(m for _, m in found), n, "sum of multiplicities")
        worst = max(abs(v.imag) for v, _ in found)
        if worst > tol:
            raise CheckError(f"imaginary part {worst:.3g} beyond the cluster tolerance {tol}")
        got = np.sort(np.array([v.real for v, m in found for _ in range(m)]))
        a = ref.dense_matrix(n, arcs, loops)
        want = np.linalg.eigvalsh(a)
        scale = max(1.0, float(np.abs(want).max()))
        if np.abs(got - want).max() > 1e-6 * scale:
            raise CheckError(f"eigenvalues differ by {np.abs(got - want).max():.3g} from eigvalsh")
        trace1 = float(sum(loops.values()))
        trace2 = float(sum(w * arcs.get((j, i), 0) for (i, j), w in arcs.items())
                       + sum(b * b for b in loops.values()))
        if abs(got.sum() - trace1) > 1e-6 * n * scale:
            raise CheckError(f"sum of eigenvalues {got.sum()} != trace {trace1}")
        if abs((got ** 2).sum() - trace2) > 1e-6 * n * scale ** 2:
            raise CheckError(f"sum of squared eigenvalues {(got ** 2).sum()} != trace of A^2 {trace2}")

    return check


def dendrimer_spectrum(rng: random.Random, work: Path, smoke: bool) -> list[Op]:
    ops = []
    for unit, core, gens in (SPECTRUM_SMOKE if smoke else SPECTRUM_SPECS):
        spec = dendrimer_spec(rng, unit, core, gens)
        name = f"{unit}-on-{core}-gen{gens}"
        path = write_json(work / f"{name}.json", spec)
        ops.append(cli_op(name, ["spectrum", "--dendrimer", path, "--format", "json"],
                          check_dendrimer_spectrum(spec)))
    return ops


def tree_points(n: int, arcs: dict) -> list[Fraction]:
    """Integer points beyond 2 sqrt(maxdeg - 1), which bounds the spectral
    radius of every subtree, and two non-integers, which no eigenvalue of an
    integer tree can equal."""
    degree = max(Counter(i for i, _ in arcs).values())
    r = math.isqrt(4 * max(degree - 1, 1)) + 1
    return [Fraction(r), Fraction(-r - 1), Fraction(r + 3), Fraction(1, 2), Fraction(-3, 2)]


def check_dendrimer_poly(spec: dict) -> Callable[[object], None]:
    def check(poly) -> None:
        coeffs: dict[int, Fraction] = {}
        for mono, c in poly.terms().items():
            if any(str(v) != "x" for v, _ in mono):
                raise CheckError(f"expected a polynomial in x, got monomial {mono}")
            coeffs[mono[0][1] if mono else 0] = Fraction(c)
        n, arcs, loops = ref.dendrimer(spec)
        expect_equal(max(coeffs), n, "degree")
        expect_equal(coeffs[n], 1, "leading coefficient")
        scale = 1
        for c in coeffs.values():
            scale = math.lcm(scale, c.denominator)
        ints = [int(coeffs.get(k, 0) * scale) for k in range(n + 1)]
        for t in tree_points(n, arcs):
            got = Fraction(ref.evaluate_scaled(ints, t.numerator, t.denominator),
                           scale * t.denominator ** n)
            expect_equal(got, ref.tree_char_value(n, arcs, loops, t), f"value at {t}")

    return check


def dendrimer_poly(rng: random.Random, work: Path, smoke: bool) -> list[Op]:
    from rootedpoly import CHARACTERISTIC_STANDARD, DendrimerSpec, factor
    from rootedpoly.graph import graph_from_json

    ops = []
    for unit, core, gens in (POLY_SMOKE if smoke else POLY_SPECS):
        spec = dendrimer_spec(rng, unit, core, gens)
        name = f"{unit}-on-{core}-gen{gens}"
        path = write_json(work / f"{name}.json", spec)

        def run(path=path):
            doc = json.loads(Path(path).read_text())
            parsed = DendrimerSpec(core=graph_from_json(doc["core"]), unit=graph_from_json(doc["unit"]),
                                   attach_sites=tuple(doc["attach_sites"]),
                                   generations=doc["generations"])
            return factor.dendrimer_poly(parsed, CHARACTERISTIC_STANDARD)

        ops.append(Op(name, run, check_dendrimer_poly(spec)))
    return ops


# -- verify ----------------------------------------------------------------


def check_verify(suites: list[str]) -> Callable[[str], None]:
    def check(text: str) -> None:
        doc = json.loads(text)
        expect_equal(doc["status"], "pass", "verify status")
        expect_equal(sorted(s["suite"] for s in doc["suites"]), sorted(suites), "suites run")
        for suite in doc["suites"]:
            for ident in suite["identities"]:
                if ident["instances"] < 1 or ident["failures"] != 0:
                    raise CheckError(f"{suite['suite']}/{ident['id']}: {ident['instances']} instances, "
                                     f"{ident['failures']} failures")

    return check


def without_timings(text: str) -> list:
    return [{k: v for k, v in suite.items() if k != "elapsed_seconds"}
            for suite in json.loads(text)["suites"]]


def verify(rng: random.Random, work: Path, smoke: bool) -> list[Op]:
    # the identity corpus is fixed by the program; the seed has nothing to vary
    suites = ["spectral"] if smoke else ["products", "bipartite", "spectral", "dendrimer"]
    op = cli_op(f"verify-{'spectral' if smoke else 'all'}",
                ["verify", "--suite", "spectral" if smoke else "all"], check_verify(suites))
    op.same = without_timings
    return [op]


# The speed loop (speed.py) that does a workload's kind of work: almost all
# of dendrimer-spectrum's time is big-integer arithmetic in sympy's sqf_list;
# the others spend theirs in the interpreter.
SPEED_LOOPS = {"dendrimer-spectrum": speed.bigint_loop}

WORKLOADS = {
    "dendrimer-spectrum": dendrimer_spectrum,
    "dendrimer-poly": dendrimer_poly,
    "small-graphs": small_graphs,
    "verify": verify,
}
