#!/usr/bin/env python3
"""Profile the identity suites of `rootedpoly verify` layer by layer.

Runs each suite once and reports, per suite, its time.perf_counter seconds,
the number of `oracle.circuit_poly` calls it made, how many distinct
(graph, weight mode, vertex names) arguments those calls had, the seconds
spent inside `poly._substitute`, the one substitution engine behind
`substitute_many` and `ratio_substitute`, and the seconds spent inside
`poly._mul_add`, the multiply-accumulate kernel behind every product and
sum of polynomials (within a substitution too).  The gap between the calls and
the distinct arguments is enumeration work a suite repeats.  The seconds
include the small cost of counting and timing the calls.  Standard library
only.
"""

import argparse
import inspect
import sys
import time

from rootedpoly import oracle, poly, verify


def argument_key(bound: inspect.BoundArguments) -> tuple:
    """What circuit_poly's result depends on: the graph's vertex count, arcs
    and loops, the mode and the vertex names."""
    g, names = bound.arguments["g"], bound.arguments["names"]
    return (g.p, tuple(sorted(g.arcs.items())), tuple(sorted(g.loops.items())),
            bound.arguments["mode"], None if names is None else tuple(sorted(names.items())))


def route(module, name: str, wrap) -> None:
    """Point every rootedpoly module's reference to module.name at
    wrap(original)."""
    original = getattr(module, name)
    wrapped = wrap(original)
    for module_name, held in list(sys.modules.items()):
        if module_name.startswith("rootedpoly") and getattr(held, name, None) is original:
            setattr(held, name, wrapped)


def count_calls(calls: list) -> None:
    """Route every module's circuit_poly through a wrapper that appends the
    key of each call's arguments to calls."""
    def wrap(original):
        signature = inspect.signature(original)

        def counted(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            calls.append(argument_key(bound))
            return original(*args, **kwargs)
        return counted

    route(oracle, "circuit_poly", wrap)


def time_calls(name: str, spent: list, slot: int) -> None:
    """Route poly.<name> through a wrapper that adds the seconds of each
    call to spent[slot]."""
    def wrap(original):
        def timed(*args):
            t0 = time.perf_counter()
            try:
                return original(*args)
            finally:
                spent[slot] += time.perf_counter() - t0
        return timed

    route(poly, name, wrap)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--suite", choices=tuple(verify.SUITES) + ("all",), default="all")
    parser.add_argument("--cap", type=int, default=verify.SUITE_CAP)
    args = parser.parse_args()

    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    calls: list = []
    spent = [0.0, 0.0]  # seconds in _substitute, in _mul_add
    count_calls(calls)
    time_calls("_substitute", spent, 0)
    time_calls("_mul_add", spent, 1)
    print(f"{'suite':>10} {'seconds':>9} {'calls':>7} {'distinct':>9} {'substitute_s':>13} {'mul_s':>7}")
    start = time.perf_counter()
    for name in names:
        first, before = len(calls), list(spent)
        t0 = time.perf_counter()
        verify.run_suites([name], cap=args.cap)
        seconds = time.perf_counter() - t0
        made = calls[first:]
        print(f"{name:>10} {seconds:>9.3f} {len(made):>7} {len(set(made)):>9} "
              f"{spent[0] - before[0]:>13.3f} {spent[1] - before[1]:>7.3f}")
    if len(names) > 1:
        print(f"{'all':>10} {time.perf_counter() - start:>9.3f} {len(calls):>7} {len(set(calls)):>9} "
              f"{spent[0]:>13.3f} {spent[1]:>7.3f}")


if __name__ == "__main__":
    main()
