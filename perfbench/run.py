#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The first call configures and builds `perfbench/` (Release, the crowdjoin
library from this source tree) into the directory named by
$CARGO_TARGET_DIR, or `.bench_build` when unset; later calls only rebuild
what changed. Build output goes to stderr. The benchmark's own output goes
to stdout and ends with one JSON line holding `correct`, `attempted`,
`failed` and `metrics`; the metric names are checked against
BENCHMARK.json. The exit code is non-zero when the build, a check, or the
result line fails. `--trace 1` also writes a Chrome trace of the traced run
to the build directory.

`--selftest` builds and runs the test that feeds each output check a
perturbed result and expects it to fail.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("campaign_sf100", "label_rounds_sf1", "serve_mixed_sf10")
# A run must finish well inside the 180 s a single invocation is allowed.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build(target):
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", "4", "--target", target])
    for step in steps:
        result = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                stderr=sys.stderr)
        if result.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return out / target


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result_line(stdout, trace):
    lines = stdout.strip().splitlines()
    if not lines:
        fail("no output")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("the last line of output is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("the result line has the wrong keys")
    declared = declared_metrics(trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != declared:
        fail(f"reported metrics {sorted(got.items())} differ from "
             f"BENCHMARK.json {sorted(declared.items())}")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        binary = build("perfbench_checks_test")
        sys.exit(subprocess.run([str(binary)], cwd=ROOT).returncode)
    if args.workload is None:
        parser.error("--workload is required")

    binary = build("perfbench")
    command = [str(binary), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace)]
    if args.trace:
        trace_file = build_dir() / f"trace-{args.workload}-{args.seed}.json"
        command += ["--trace-out", str(trace_file)]
    try:
        run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the run exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    result = check_result_line(run.stdout, args.trace)
    if run.returncode != 0 or not result["correct"]:
        fail(f"output checks failed (exit code {run.returncode})")


if __name__ == "__main__":
    main()
