#!/usr/bin/env python3
"""Run one workload under several seeds and report each metric's spread.

    python3 bench/spread.py --workload verify --seeds 1-10 [--seconds 15]

Runs bench/run.py --trace 0 once per seed, one after another, from the
current directory, and prints per metric the median of the runs and the
distance between the first and third quartiles (statistics.quantiles, n=4)
as a share of the median, plus the share of failed operations in each run.
Next to the reported metrics, which are scaled to reference speed, it
gives the raw `wall_s` and `setup_s` (medians within each run) and the
median time of the speed loop, from each run's result file.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", default="15")
    args = parser.parse_args()
    run = Path(__file__).resolve().parent / "run.py"
    values: dict[str, list[float]] = {}
    shares = set()
    for seed in args.seeds:
        proc = subprocess.run([sys.executable, str(run), "--workload", args.workload, "--seed", str(seed),
                               "--seconds", args.seconds, "--trace", "0"],
                              capture_output=True, text=True, check=True)
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        raw = json.loads(Path(f".bench_out/result-{args.workload}-trace0.json").read_text())["raw"]
        row = {name: metric["value"] for name, metric in out["metrics"].items()}
        row["raw.setup_s"] = statistics.median(raw["setup_s"])
        row["raw.wall_s"] = statistics.median(raw["wall_s"])
        row["speed_loop_ms"] = 1e3 * statistics.median(raw["speed"])
        shares.add(out["failed"] / out["attempted"])
        print(f"seed {seed}: correct {out['correct']} attempted {out['attempted']} failed {out['failed']} "
              + " ".join(f"{k}={v:.4g}" for k, v in row.items()), flush=True)
        for name, value in row.items():
            values.setdefault(name, []).append(value)
    print(f"failed share per run: {sorted(shares)}")
    for name, vals in values.items():
        median = statistics.median(vals)
        if len(vals) > 1 and median:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            print(f"{name:28s} median {median:.4g}  IQR/median {(q3 - q1) / median:.3f}")
        else:
            print(f"{name:28s} median {median:.4g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
