"""Spans around the program's public functions, patched in from outside.

Only the traced run installs this.  Every wrapped call records a span
(name, start, end, parent span, operation, probe value); spans stay in
memory until the run writes them out.  Per-layer metrics are computed from
the spans of one round: a group's time counts only its outermost spans, so
recursion and nesting inside the group are not counted twice, and a span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass


def _bits(c) -> int:
    if isinstance(c, int):
        return c.bit_length()
    num = getattr(c, "numerator", None)
    if isinstance(num, int):
        return max(num.bit_length(), c.denominator.bit_length())
    return 64


def _mul_probe(args, result):
    terms = result.terms()
    return (len(terms), max((_bits(c) for c in terms.values()), default=0))


def _specialize_probe(args, result):
    mode, g = args[1], args[2]
    return int(mode.sigma_b == -1 and bool(g.loops))


def _sqf_probe(args, result):
    return (args[0].degree(), len(result[1]))


# (module, attribute or Class.method, span name, group, probe)
TARGETS = [
    ("rootedpoly.cli", "main", "cli.main", "cli", None),
    ("rootedpoly.graph", "graph_from_json", "graph.graph_from_json", "graph", None),
    ("rootedpoly.graph", "rooted_product", "graph.rooted_product", "graph", None),
    ("rootedpoly.graph", "restricted_rooted_product", "graph.restricted_rooted_product", "graph", None),
    ("rootedpoly.oracle", "circuit_poly", "oracle.circuit_poly", "oracle.circuit_poly",
     lambda args, result: len(result.terms())),
    ("rootedpoly.oracle", "specialize", "oracle.specialize", "oracle.specialize", _specialize_probe),
    ("rootedpoly.poly", "Poly.__mul__", "poly.mul", "poly.mul", _mul_probe),
    ("rootedpoly.poly", "Poly.__pow__", "poly.pow", "poly.mul", _mul_probe),
    ("rootedpoly.poly", "Poly.substitute_many", "poly.substitute_many", "poly.substitute_many", None),
    ("rootedpoly.poly", "ratio_substitute", "poly.ratio_substitute", "poly.ratio_substitute", None),
    ("rootedpoly.poly", "multilinear_ratio_substitute", "poly.multilinear_ratio_substitute",
     "poly.ratio_substitute", None),
    ("rootedpoly.factor", "monodendron_polys", "factor.monodendron_polys", "factor.monodendron_polys", None),
    ("rootedpoly.factor", "dendrimer_poly", "factor.dendrimer_poly", "factor.dendrimer_poly", None),
    ("rootedpoly.factor", "rooted_product_poly", "factor.rooted_product_poly",
     "factor.rooted_product_poly", None),
    ("rootedpoly.factor", "restricted_product_poly", "factor.restricted_product_poly",
     "factor.restricted_product_poly", None),
    ("rootedpoly.factor", "bipartite_delta", "factor.bipartite_delta", "factor.bipartite_delta", None),
    ("rootedpoly.spectra", "roots", "spectra.roots", "spectra.roots",
     lambda args, result: len(result.roots)),
    ("sympy", "Poly.sqf_list", "sympy.sqf_list", "sympy.sqf_list", _sqf_probe),
    ("numpy", "roots", "numpy.roots", "numpy.roots", None),
    ("rootedpoly.verify", "run_products_suite", "verify.products", "verify.products", None),
    ("rootedpoly.verify", "run_bipartite_suite", "verify.bipartite", "verify.bipartite", None),
    ("rootedpoly.verify", "run_spectral_suite", "verify.spectral", "verify.spectral", None),
    ("rootedpoly.verify", "run_dendrimer_suite", "verify.dendrimer", "verify.dendrimer", None),
]

GROUPS = sorted({t[3] for t in TARGETS} | {"op"})
_GROUP_BIT = {g: 1 << i for i, g in enumerate(GROUPS)}
_GROUP_OF = {t[2]: t[3] for t in TARGETS}
_GROUP_OF["op"] = "op"

# per-layer metric name -> unit, in the order they are reported
METRICS = {
    "cli.self_s": "s", "cli.calls": "count",
    "graph.self_s": "s",
    "oracle.circuit_poly_s": "s", "oracle.circuit_poly.calls": "count",
    "oracle.circuit_poly.terms": "count",
    "oracle.specialize_s": "s", "oracle.reenumerations": "count",
    "poly.mul_s": "s", "poly.mul.calls": "count", "poly.mul.max_terms": "count",
    "poly.mul.max_coeff_bits": "bits",
    "poly.substitute_many_s": "s", "poly.ratio_substitute_s": "s",
    "factor.monodendron_polys_s": "s", "factor.dendrimer_poly_s": "s",
    "factor.rooted_product_poly_s": "s", "factor.restricted_product_poly_s": "s",
    "factor.bipartite_delta_s": "s",
    "spectra.roots_s": "s", "spectra.roots.self_s": "s", "spectra.roots.calls": "count",
    "spectra.distinct_roots": "count",
    "sympy.sqf_list_s": "s", "sympy.sqf_list.calls": "count",
    "sympy.sqf_list.max_degree": "degree", "sympy.sqf_list.factors": "count",
    "numpy.roots_s": "s",
    "verify.products_s": "s", "verify.bipartite_s": "s", "verify.spectral_s": "s",
    "verify.dendrimer_s": "s",
    "trace.overhead_s": "s",
}


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: int
    probe: object


class Tracer:
    """Collects spans; install() patches the targets, uninstall() undoes it."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.stack: list[int] = []
        self.op = -1
        self._patches: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, probe=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                value = probe(args, result) if probe is not None and result is not None else None
                spans[idx] = Span(name, start, end, parent, self.op, value)

        return traced

    def install(self) -> None:
        namespaces = [vars(m) for name, m in sys.modules.items()
                      if m is not None and (name == "rootedpoly" or name.startswith("rootedpoly."))]
        namespaces.append(sys.modules["rootedpoly.verify"].SUITES)
        for modname, attr, name, _, probe in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                # a method: patch its class under every name, as __rmul__ = __mul__ shares it
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = vars(cls)[method]
                wrapper = self.span(name, orig, probe)
                for key, value in list(vars(cls).items()):
                    if value is orig:
                        self._patches.append((cls, key, value))
                        setattr(cls, key, wrapper)
            else:
                # a function: patch every namespace that imported it, under any name
                orig = getattr(owner, attr)
                wrapper = self.span(name, orig, probe)
                for ns in [vars(owner)] + namespaces:
                    for key, value in list(ns.items()):
                        if value is orig:
                            self._patches.append((ns, key, value))
                            ns[key] = wrapper

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._patches.clear()

    def begin_op(self, index: int) -> int:
        """Open the root span of one operation; returns its span index."""
        self.op = index
        idx = len(self.spans)
        self.spans.append(Span("op", time.perf_counter(), 0.0, -1, index, None))
        self.stack.append(idx)
        return idx

    def end_op(self, idx: int) -> None:
        self.stack.pop()
        self.spans[idx].end = time.perf_counter()
        self.op = -1

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, round(s.start, 7), round(s.end, 7), s.parent, s.op],
                                    separators=(",", ":")))
                fh.write("\n")


def layer_metrics(spans: list[Span], first: int, last: int) -> dict[str, float]:
    """Per-layer metrics of the spans with indices first..last-1 (one round)."""
    child = {}
    mask = {}
    total = {g: 0.0 for g in GROUPS}
    self_time = {g: 0.0 for g in GROUPS}
    calls = {g: 0 for g in GROUPS}
    probes: dict[str, list] = {g: [] for g in GROUPS}
    for i in range(first, last):
        s = spans[i]
        if s.parent >= first:
            child[s.parent] = child.get(s.parent, 0.0) + (s.end - s.start)
            parent = spans[s.parent]
            mask[i] = mask[s.parent] | _GROUP_BIT[_GROUP_OF[parent.name]]
        else:
            mask[i] = 0
    for i in range(first, last):
        s = spans[i]
        g = _GROUP_OF[s.name]
        dur = s.end - s.start
        calls[g] += 1
        self_time[g] += dur - child.get(i, 0.0)
        if not mask[i] & _GROUP_BIT[g]:
            total[g] += dur
        if s.probe is not None:
            probes[g].append(s.probe)
    mul = probes["poly.mul"]
    sqf = probes["sympy.sqf_list"]
    return {
        "cli.self_s": self_time["cli"], "cli.calls": calls["cli"],
        "graph.self_s": self_time["graph"],
        "oracle.circuit_poly_s": total["oracle.circuit_poly"],
        "oracle.circuit_poly.calls": calls["oracle.circuit_poly"],
        "oracle.circuit_poly.terms": sum(probes["oracle.circuit_poly"]),
        "oracle.specialize_s": total["oracle.specialize"],
        "oracle.reenumerations": sum(probes["oracle.specialize"]),
        "poly.mul_s": total["poly.mul"], "poly.mul.calls": calls["poly.mul"],
        "poly.mul.max_terms": max((t for t, _ in mul), default=0),
        "poly.mul.max_coeff_bits": max((b for _, b in mul), default=0),
        "poly.substitute_many_s": total["poly.substitute_many"],
        "poly.ratio_substitute_s": total["poly.ratio_substitute"],
        "factor.monodendron_polys_s": total["factor.monodendron_polys"],
        "factor.dendrimer_poly_s": total["factor.dendrimer_poly"],
        "factor.rooted_product_poly_s": total["factor.rooted_product_poly"],
        "factor.restricted_product_poly_s": total["factor.restricted_product_poly"],
        "factor.bipartite_delta_s": total["factor.bipartite_delta"],
        "spectra.roots_s": total["spectra.roots"],
        "spectra.roots.self_s": self_time["spectra.roots"],
        "spectra.roots.calls": calls["spectra.roots"],
        "spectra.distinct_roots": sum(probes["spectra.roots"]),
        "sympy.sqf_list_s": total["sympy.sqf_list"],
        "sympy.sqf_list.calls": calls["sympy.sqf_list"],
        "sympy.sqf_list.max_degree": max((d for d, _ in sqf), default=0),
        "sympy.sqf_list.factors": sum(f for _, f in sqf),
        "numpy.roots_s": total["numpy.roots"],
        "verify.products_s": total["verify.products"],
        "verify.bipartite_s": total["verify.bipartite"],
        "verify.spectral_s": total["verify.spectral"],
        "verify.dendrimer_s": total["verify.dendrimer"],
    }
