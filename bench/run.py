#!/usr/bin/env python3
"""Benchmark of rootedpoly: one workload, a closed loop of whole rounds.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout; the program is imported from ./src.  One
process and one thread run every operation, each starting when the
previous one ends.  Rounds of the workload's fixed operation list repeat
until S seconds have passed (at least one round).  The last line of stdout
is a JSON object with "correct", "attempted", "failed" and "metrics".

--trace 0 reports the end-to-end metrics, in seconds at reference speed:
each time is scaled by the machine's speed, sampled while it ran with a
loop that does the workload's kind of work (bench/speed.py).  --trace 1
runs one untraced round, then wraps the program's public functions
(bench/tracing.py) for the remaining rounds and reports per-layer metrics,
plus trace.overhead_s, the traced minus the untraced round time.  Results, and the spans of the first
traced round, go to .bench_out/.
--smoke runs one round of tiny inputs, for the benchmark's own tests.
"""

import argparse
import gc
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed  # stdlib only; bench/ is on sys.path as the script's directory

# one thread: BLAS inside numpy.roots and the reference eigensolvers included
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("dendrimer-spectrum", "dendrimer-poly", "small-graphs", "verify")
UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one round of tiny inputs")
    # set up, then exit: the parent times SETUP_REPEATS of these for setup_s
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_seconds(args) -> tuple[float, list[float]]:
    """Median over fresh processes that import, generate the inputs, run the
    warm-up round and exit, of the time from process start to the first
    timed operation, scaled by the speed sampled in all of them; and the
    raw times."""
    argv = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
            "--setup-only"] + (["--smoke"] if args.smoke else [])
    raw, samples = [], []
    for _ in range(1 if args.smoke else SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(argv, check=True, stdout=subprocess.PIPE, text=True)
        elapsed = time.perf_counter() - start
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        raw.append(elapsed - child["busy"])
        samples += child["samples"]
    return statistics.median(raw) * speed.scale_of(samples), raw


def run_round(ops, tracer=None, sampler=None) -> dict:
    """Run every operation once and time it; outputs are checked later.
    With a sampler running, each time excludes its handler's time."""
    from reference import CheckError

    gc.collect()
    first_span = len(tracer.spans) if tracer else 0
    durations, failures, wrong = [], [], []
    round_start = time.perf_counter()
    for i, op in enumerate(ops):
        span = tracer.begin_op(i) if tracer else None
        busy = sampler.busy if sampler else 0.0
        start = time.perf_counter()
        try:
            output = op.run()
            error = None
        except (Exception, SystemExit) as exc:  # a failed operation is counted, not fatal
            error = exc
        elapsed = time.perf_counter() - start - ((sampler.busy - busy) if sampler else 0.0)
        if tracer:
            tracer.end_op(span)
        durations.append((elapsed, error is None))
        if error is not None:
            failures.append(f"{op.name}: {type(error).__name__}: {error}"[:300])
            if not op.may_fail:  # any other failure makes the run incorrect
                wrong.append(f"{op.name} failed")
            continue
        try:
            op.record(output)
        except CheckError as exc:
            wrong.append(f"{op.name}: {exc}")
    return {"wall": sum(d for d, _ in durations), "ops": durations,
            "interval": (round_start, time.perf_counter()), "failures": failures,
            "wrong": wrong, "spans": (first_span, len(tracer.spans) if tracer else 0)}


def check_outputs(ops) -> list[str]:
    """Check the first output of every operation that succeeded."""
    wrong = []
    for op in ops:
        if op.first is None:
            continue
        try:
            op.check(op.first)
        except Exception as exc:  # a failed check or unreadable output: a wrong answer
            wrong.append(f"{op.name}: {type(exc).__name__}: {exc}"[:300])
    return wrong


def run_rounds(seconds: float, ops, smoke: bool, sampler) -> list[dict]:
    start = time.perf_counter()
    rounds = [run_round(ops, sampler=sampler)]
    while not smoke and time.perf_counter() - start < seconds:
        rounds.append(run_round(ops, sampler=sampler))
    return rounds


def traced_metrics(args, ops, tracing) -> tuple[dict, list[dict]]:
    baseline = run_round(ops)
    tracer = tracing.Tracer()
    tracer.install()
    rounds, per_round = [], []
    try:
        start = time.perf_counter()
        while not rounds or (not args.smoke and time.perf_counter() - start < args.seconds):
            rounds.append(run_round(ops, tracer))
            first, last = rounds[-1]["spans"]
            per_round.append(tracing.layer_metrics(tracer.spans, first, last))
            if len(rounds) > 1:  # memory: only the first traced round's spans are kept
                del tracer.spans[first:]
    finally:
        tracer.uninstall()
    tracer.write(OUT / f"trace-{args.workload}.jsonl")
    # the lower middle value, so that counts stay whole numbers
    values = {name: statistics.median_low(r[name] for r in per_round) for name in per_round[0]}
    values["trace.overhead_s"] = statistics.median(r["wall"] for r in rounds) - baseline["wall"]
    return values, [baseline] + rounds


def end_to_end_metrics(args, ops, which) -> tuple[dict, list[dict], dict]:
    sampler = speed.Sampler(which)
    sampler.start()
    try:
        rounds = run_rounds(args.seconds, ops, args.smoke, sampler)
    finally:
        sampler.stop()
    # each round's times at the speed sampled during that round
    scales = [sampler.scale(*r["interval"]) for r in rounds]
    op_times = [d * k for r, k in zip(rounds, scales) for d, ok in r["ops"] if ok]
    setup, setup_raw = setup_seconds(args)
    values = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "wall_s": statistics.median(r["wall"] * k for r, k in zip(rounds, scales)),
        "op_p50_s": statistics.median(op_times) if op_times else float("nan"),
        "setup_s": setup,
    }
    # the unscaled times, for the result file only
    raw = {"setup_s": setup_raw, "wall_s": [r["wall"] for r in rounds],
           "speed": [d for _, d in sampler.samples]}
    return values, rounds, raw


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "rootedpoly" / "__init__.py").is_file():
        print(f"error: no program at {ROOT / 'src' / 'rootedpoly'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    if args.setup_only:  # the parent times this process; samples from its start
        sampler = speed.Sampler()
        sampler.start()

    # loads every program module, numpy and sympy, all of which the tracer patches
    import rootedpoly.cli  # noqa: F401
    import tracing
    import workloads

    generate = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    try:
        # set-up: inputs from the seed, then a warm-up round on tiny inputs
        (work / "warm").mkdir(parents=True)
        ops = generate(random.Random(args.seed), work, args.smoke)
        warm_ops = generate(random.Random(args.seed), work / "warm", True)
        warm = run_round(warm_ops)
        if args.setup_only:
            sampler.stop()
            print(json.dumps({"busy": sampler.busy, "samples": [d for _, d in sampler.samples]}))
            return 0
        warm["wrong"] += check_outputs(warm_ops)
        raw = {}
        if args.trace:
            values, rounds = traced_metrics(args, ops, tracing)
            units = tracing.METRICS
        else:
            values, rounds, raw = end_to_end_metrics(
                args, ops, workloads.SPEED_LOOPS.get(args.workload, speed.loop))
            units = UNITS
        # checked only now, so that peak_rss_mb is the program's, not the references'
        rounds[-1]["wrong"] += check_outputs(ops)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = sorted({f for r in rounds + [warm] for f in r["failures"]})
    wrong = sorted({w for r in rounds + [warm] for w in r["wrong"]})
    for line in failures:
        print(f"failed: {line}", file=sys.stderr)
    for line in wrong:
        print(f"WRONG: {line}", file=sys.stderr)
    summary = {
        "correct": not wrong,
        "attempted": sum(len(r["ops"]) for r in rounds),
        "failed": sum(len(r["failures"]) for r in rounds),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    detail = dict(summary, workload=args.workload, seed=args.seed, ops=[op.name for op in ops],
                  rounds=[{"wall": r["wall"], "ops": [d for d, _ in r["ops"]]} for r in rounds],
                  raw=raw, failures=failures, wrong=wrong)
    suffix = ("smoke-" if args.smoke else "") + f"trace{args.trace}"
    (OUT / f"result-{args.workload}-{suffix}.json").write_text(json.dumps(detail, indent=1))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
