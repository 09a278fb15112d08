#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload <name> [--seeds 1,2,...] [--trace 0]

Runs perfbench/run.py once per seed (run_seconds from BENCHMARK.json)
and prints, per metric, the median, the quartiles and the spread: the
distance between the first and third quartile as a share of the median,
next to the metric's bound. A spread at or above a third of the bound
is flagged. Run from the root of a checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1,2,3,4,5")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values = {}
    for seed in args.seeds.split(","):
        command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
                   "--workload", args.workload, "--seed", seed,
                   "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
        run = subprocess.run(command, capture_output=True, text=True,
                             cwd=ROOT)
        line = run.stdout.strip().splitlines()[-1] if run.stdout.strip() else "{}"
        result = json.loads(line)
        print("seed %s: exit %d correct %s" % (seed, run.returncode,
                                               result.get("correct")),
              flush=True)
        for name, metric in result.get("metrics", {}).items():
            values.setdefault(name, []).append(metric["value"])

    for name, series in values.items():
        if len(series) < 2:
            continue
        q1, med, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and spread >= bound / 3:
            flag = "  <-- spread >= bound/3"
        print("%-28s median %14.6g  q1 %14.6g  q3 %14.6g  spread %.4f"
              "  bound %s%s" % (name, med, q1, q3, spread, bound, flag))


if __name__ == "__main__":
    main()
