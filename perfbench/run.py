#!/usr/bin/env python3
"""Repo benchmark: builds the driver from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The driver is built in Release under
$CARGO_TARGET_DIR (default .bench_build); the full result, with
provenance and the span tree, is written under .bench_out/. The last
line of standard output is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding every end_to_end metric of BENCHMARK.json when --trace is 0 and
every per_layer metric when it is 1. The exit code is non-zero when a
build fails, an output check fails or a metric is missing. Besides the
workloads BENCHMARK.json gates, the driver runs `frontdoor`, which
reports the same metrics (perfbench/RATIONALE.md says why it is not
gated).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
DRIVER_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def fail(message):
    log("perfbench: " + message)
    sys.exit(2)


def build(build_dir):
    """Configures (once) and builds the driver; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("observatory sources not found under src/; nothing to build")
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 2)
    command = ["cmake", "--build", str(build_dir), "--target",
               "perfbench_driver", "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("driver build failed")
    return build_dir / "perfbench_driver"


def provenance():
    """Git sha when the checkout is a repository, plus a digest of the
    sources the driver was built from (a checkout may not be one)."""
    sha = "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            sha = out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {"git_sha": sha, "source_sha256": digest.hexdigest()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found at the checkout root")
    spec = json.loads(spec_path.read_text())
    expected = spec["per_layer"] if args.trace else spec["end_to_end"]

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    driver = build(build_dir)

    command = [str(driver), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    try:
        run = subprocess.run(command, capture_output=True, text=True,
                             timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver exceeded %d s" % DRIVER_TIMEOUT_S)
    if run.stderr:
        log(run.stderr.rstrip())
    lines = run.stdout.strip().splitlines()
    if not lines:
        fail("driver printed no result (exit %d)" % run.returncode)
    result = json.loads(lines[-1])
    result["provenance"].update(provenance())
    result["provenance"]["seed"] = args.seed

    source = result["layers"] if args.trace else result["end_to_end"]
    metrics = {}
    problems = list(result["notes"])
    for metric in expected:
        got = source.get(metric["name"])
        if got is None:
            problems.append("missing metric " + metric["name"])
        elif got["unit"] != metric["unit"]:
            problems.append("unit of %s is %s, BENCHMARK.json says %s"
                            % (metric["name"], got["unit"], metric["unit"]))
        else:
            metrics[metric["name"]] = {"value": got["value"],
                                       "unit": got["unit"]}
    extra = sorted(set(source) - {m["name"] for m in expected})
    if extra:
        problems.append("metrics not in BENCHMARK.json: " + ", ".join(extra))
    correct = (run.returncode == 0 and result["correct"]
               and len(metrics) == len(expected) and not extra)

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    record = out_dir / ("%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    record.write_text(json.dumps(result, indent=1) + "\n")

    prov = result["provenance"]
    print("workload %s  seed %d  %s build, %s, nproc %d, git %s"
          % (args.workload, args.seed, prov["build_type"], prov["compiler"],
             prov["nproc"], prov["git_sha"][:12]))
    for name, metric in result["named"].items():
        print("  %-28s %16.6g %s" % (name, metric["value"], metric["unit"]))
    for name, metric in metrics.items():
        print("  %-28s %16.6g %s" % (name, metric["value"], metric["unit"]))
    for problem in problems:
        print("  note: " + problem)
    print("  full record: " + str(record.relative_to(ROOT)))
    print(json.dumps({"correct": correct,
                      "attempted": max(1, result["attempted"]),
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
