"""Command-line interface.

Subcommands: poly (circuit polynomial of a graph file), product (construct
rooted products), verify (identity suites), spectrum (numeric roots).
Exit codes: 0 success, 2 input or validation problem or a numeric failure,
3 a graph with more vertices than the vertex cap, 4 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from operator import itemgetter

from . import verify
from .factor import dendrimer_spectrum, weight_gens
from .graph import (DendrimerSpec, Graph, GraphFormatError, graph_from_json,
                    graph_to_json, rooted_product, restricted_rooted_product)
from .oracle import (DEFAULT_CAP, OracleCapExceeded, circuit_poly, mode_by_name,
                     simple_circuit_poly)
from .poly import Poly, _write
from .spectra import roots

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_VERIFY = 4


def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise GraphFormatError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


def _load_graph(path: str) -> Graph:
    return graph_from_json(_read_json(path))


def _poly_json(p: Poly) -> str:
    """The text of json.dumps({"text": str(p), "terms": terms}, indent=2),
    written directly.

    A term is {"coeff": its text, "monomial": {name: exponent}}, with the
    variables in canonical order.  The text and the terms come from one pass
    over the terms (poly._write), each in its pinned order: the text by
    descending total degree, the terms by the text of their monomial tuples,
    so x10 comes before x2 and the constant comes last.  The text holds only
    ASCII letters, digits, spaces and "+-*/^().", none of which json.dumps
    escapes.
    """
    text, terms = _write(p._terms, with_json=True)
    return f'{{\n  "text": "{text}",\n  "terms": {terms}\n}}'


def cmd_poly(args) -> int:
    g = _load_graph(args.graph)
    mode = mode_by_name(args.mode)
    result = circuit_poly(g, args.cap, mode if args.full else mode.simple())
    if args.format == "json":
        print(_poly_json(result))
    else:
        print(result)
    return EXIT_OK


def _json_scalar(value) -> str:
    return f'"{value}"' if type(value) is str else str(value)


def _json_item(item) -> str:
    if type(item) is dict:
        return "{\n      " + ",\n      ".join(f'"{k}": {_json_scalar(x)}' for k, x in item.items()) + "\n    }"
    return _json_scalar(item)


def _indented_json(doc: dict) -> str:
    """The text of json.dumps(doc, indent=2), written directly, for a dict
    whose values are ints, strings JSON does not escape, or lists of those or
    of flat dicts of those: the shape of graph_to_json's document."""
    fields = []
    for key, value in doc.items():
        if type(value) is list:
            items = ",".join("\n    " + _json_item(item) for item in value)
            value = f"[{items}\n  ]" if items else "[]"
        else:
            value = _json_scalar(value)
        fields.append(f'"{key}": {value}')
    return "{\n  " + ",\n  ".join(fields) + "\n}"


def _product_doc(product: Graph, core_p: int, maps: list[dict[int, int]]) -> dict:
    """graph_to_json(product) with "provenance": one {"vertex", "origin":
    "core", "core_vertex"} per core vertex, then member by member, in product
    vertex order, one {"vertex", "origin": "attachment", "core_vertex",
    "member_vertex"} per vertex the member adds."""
    doc = graph_to_json(product)
    provenance = [{"vertex": v, "origin": "core", "core_vertex": v} for v in range(1, core_p + 1)]
    for k, mapping in enumerate(maps, start=1):
        for member_vertex, product_vertex in sorted(mapping.items(), key=itemgetter(1)):
            if product_vertex > core_p:
                provenance.append({"vertex": product_vertex, "origin": "attachment",
                                   "core_vertex": k, "member_vertex": member_vertex})
    doc["provenance"] = provenance
    return doc


def cmd_product(args) -> int:
    core = _load_graph(args.core)
    if args.restricted:
        if not (args.h1 and args.h2):
            raise GraphFormatError("--restricted needs --h1 and --h2")
        h1 = _load_graph(args.h1)
        h2 = _load_graph(args.h2)
        product, maps = restricted_rooted_product(core, h1, h2)
    else:
        if not args.gamma:
            raise GraphFormatError("need --gamma files or --restricted --h1/--h2")
        if len(args.gamma) != core.p:
            raise GraphFormatError(
                f"--gamma lists {len(args.gamma)} graphs but the core has {core.p} vertices")
        gamma = [_load_graph(f) for f in args.gamma]
        product, maps = rooted_product(core, gamma)
    text = _indented_json(_product_doc(product, core.p, maps))
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise GraphFormatError(f"{args.output}: {exc}") from exc
    else:
        print(text)
    return EXIT_OK


def cmd_verify(args) -> int:
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    reports = verify.run_suites(names, cap=args.cap)
    payload = {"suites": [r.to_dict() for r in reports],
               "status": "pass" if all(r.passed for r in reports) else "fail"}
    print(json.dumps(payload, indent=2))
    return EXIT_OK if payload["status"] == "pass" else EXIT_VERIFY


def _load_dendrimer_spec(path: str) -> DendrimerSpec:
    data = _read_json(path)
    if not isinstance(data, dict):
        raise GraphFormatError("dendrimer spec must be a JSON object")
    for key in ("core", "unit", "attach_sites", "generations"):
        if key not in data:
            raise GraphFormatError(f"dendrimer spec missing field {key!r}")
    try:
        return DendrimerSpec(core=graph_from_json(data["core"]),
                             unit=graph_from_json(data["unit"]),
                             attach_sites=tuple(data["attach_sites"]),
                             generations=data["generations"])
    except (TypeError, ValueError) as exc:
        raise GraphFormatError(f"bad dendrimer spec: {exc}") from exc


def _rootset_json(rs) -> str:
    """The text of json.dumps({"degree", "cluster_tol", "roots"}, indent=2),
    written directly."""
    found = ",".join(f'\n    {{\n      "re": "{v.real:.12g}",\n      "im": "{v.imag:.12g}",'
                     f'\n      "multiplicity": {m},\n      "residual": "{r:.3g}"\n    }}'
                     for (v, m), r in zip(rs.roots, rs.residuals))
    found = f"[{found}\n  ]" if found else "[]"
    tol = json.dumps(rs.cluster_tol)
    return f'{{\n  "degree": {rs.source_degree},\n  "cluster_tol": {tol},\n  "roots": {found}\n}}'


def _print_rootset(rs, fmt: str) -> None:
    if fmt == "json":
        print(_rootset_json(rs))
        return
    print(f"{'real':>18} {'imag':>18} {'mult':>5} {'residual':>10}")
    for (v, m), r in zip(rs.roots, rs.residuals):
        print(f"{v.real:>18.12g} {v.imag:>18.12g} {m:>5} {r:>10.3g}")


def cmd_spectrum(args) -> int:
    mode = mode_by_name(args.mode)
    if args.dendrimer:
        spec = _load_dendrimer_spec(args.dendrimer)
        rs = dendrimer_spectrum(spec, mode, cap=args.cap)
    else:
        if not args.graph:
            raise GraphFormatError("need a graph file or --dendrimer spec")
        g = _load_graph(args.graph)
        symbolic = weight_gens(mode, g.p)
        if symbolic:
            raise ValueError(f"mode {mode.name} leaves {', '.join(map(str, symbolic))} symbolic; "
                             "a spectrum needs a polynomial in x alone")
        rs = roots(simple_circuit_poly(g, mode, args.cap))
    _print_rootset(rs, args.format)
    return EXIT_OK


def _positive_int(text: str) -> int:
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


CAP_HELP = ("the largest vertex count a graph may have, checked before every route, "
            "the determinant and permanent included; a larger graph exits 3")


@functools.cache  # built once, on the first call of main
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rootedpoly",
        description="Circuit polynomials of weighted directed pseudographs and their rooted products")
    sub = parser.add_subparsers(dest="command", required=True)

    p_poly = sub.add_parser("poly", help="circuit polynomial of a graph file")
    p_poly.add_argument("graph", help="graph JSON file")
    p_poly.add_argument("--mode", default="generic", help="weight mode name")
    p_poly.add_argument("--full", action="store_true",
                        help="keep the per-vertex variables; without it they collapse into x")
    p_poly.add_argument("--cap", type=_positive_int, default=DEFAULT_CAP,
                        help=CAP_HELP + " (default %(default)s)")
    p_poly.add_argument("--format", choices=("text", "json"), default="text")
    p_poly.set_defaults(func=cmd_poly)

    p_prod = sub.add_parser("product", help="construct a rooted product graph")
    p_prod.add_argument("core", help="core graph JSON file")
    p_prod.add_argument("--gamma", nargs="+", help="one attachment file per core vertex")
    p_prod.add_argument("--restricted", action="store_true",
                        help="attach --h1 on part 1 and --h2 on part 2 of a bipartitioned core")
    p_prod.add_argument("--h1")
    p_prod.add_argument("--h2")
    p_prod.add_argument("-o", "--output", help="write the product graph here")
    p_prod.set_defaults(func=cmd_product)

    p_ver = sub.add_parser("verify", help="run identity verification suites")
    p_ver.add_argument("--suite", choices=tuple(verify.SUITES) + ("all",), default="all")
    p_ver.add_argument("--cap", type=_positive_int, default=verify.SUITE_CAP,
                       help="the largest vertex count of a graph the suites enumerate: "
                            "larger products are skipped and show as fewer instances, and "
                            "a suite whose fixed graphs exceed it exits 3 (default %(default)s)")
    p_ver.set_defaults(func=cmd_verify)

    p_spec = sub.add_parser("spectrum", help="numeric roots of the simple polynomial")
    p_spec.add_argument("graph", nargs="?", help="graph JSON file")
    p_spec.add_argument("--dendrimer", help="dendrimer spec JSON file")
    p_spec.add_argument("--mode", default="characteristic-standard")
    p_spec.add_argument("--cap", type=_positive_int, default=DEFAULT_CAP,
                        help=CAP_HELP + "; with --dendrimer it bounds the core and the unit "
                             "(default %(default)s)")
    p_spec.add_argument("--format", choices=("text", "json"), default="text")
    p_spec.set_defaults(func=cmd_spectrum)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except OracleCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (GraphFormatError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone; point stdout at devnull so that the flush at
        # interpreter exit does not raise again (see the note on SIGPIPE in
        # the Python documentation of the signal module)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    entry()
