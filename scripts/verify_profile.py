#!/usr/bin/env python3
"""Profile the identity suites of `rootedpoly verify` layer by layer.

Runs each suite once and reports, per suite, its time.perf_counter seconds,
the number of `oracle.circuit_poly` calls it made, and how many distinct
(graph, weight mode, vertex names) arguments those calls had.  The gap
between the last two columns is enumeration work a suite repeats.  The
seconds include the small cost of counting the calls.  Standard library only.
"""

import argparse
import inspect
import sys
import time

from rootedpoly import oracle, verify


def argument_key(bound: inspect.BoundArguments) -> tuple:
    """What circuit_poly's result depends on: the graph's vertex count, arcs
    and loops, the mode and the vertex names."""
    g, names = bound.arguments["g"], bound.arguments["names"]
    return (g.p, tuple(sorted(g.arcs.items())), tuple(sorted(g.loops.items())),
            bound.arguments["mode"], None if names is None else tuple(sorted(names.items())))


def count_calls(calls: list) -> None:
    """Route every module's circuit_poly through a wrapper that appends the
    key of each call's arguments to calls."""
    original = oracle.circuit_poly
    signature = inspect.signature(original)

    def counted(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append(argument_key(bound))
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("rootedpoly") and getattr(module, "circuit_poly", None) is original:
            module.circuit_poly = counted


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--suite", choices=tuple(verify.SUITES) + ("all",), default="all")
    parser.add_argument("--cap", type=int, default=verify.SUITE_CAP)
    args = parser.parse_args()

    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    calls: list = []
    count_calls(calls)
    print(f"{'suite':>10} {'seconds':>9} {'calls':>7} {'distinct':>9}")
    start = time.perf_counter()
    for name in names:
        first = len(calls)
        t0 = time.perf_counter()
        verify.run_suites([name], cap=args.cap)
        seconds = time.perf_counter() - t0
        made = calls[first:]
        print(f"{name:>10} {seconds:>9.3f} {len(made):>7} {len(set(made)):>9}")
    if len(names) > 1:
        print(f"{'all':>10} {time.perf_counter() - start:>9.3f} {len(calls):>7} {len(set(calls)):>9}")


if __name__ == "__main__":
    main()
