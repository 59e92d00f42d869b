#!/usr/bin/env python3
"""Entry point of the repository benchmark (see BENCHMARK.json, README.md).

    python3 misbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds misbench/ (Release, in .bench_build/misbench; a no-op once built),
runs the one workload in its own process, checks that the metric names it
printed are exactly the BENCHMARK.json set for the mode (end_to_end for
--trace 0, per_layer for --trace 1), attaches the units, and prints the
result JSON as the last line of stdout. Build output goes to stderr.

Exit status: 0 with a result line; 2 (and no result line) when the source
tree or BENCHMARK.json is missing, the build fails, the workload crashes or
times out, or its metric names do not match BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "misbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "misbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "misbench-work")
RUN_TIMEOUT_S = 170
JOBS = "4"


def die(message):
    print("misbench/run.py: " + message, file=sys.stderr)
    sys.exit(2)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        die("BENCHMARK.json not found at the repository root")
    with open(path) as f:
        return json.load(f)


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        die("library sources (src/) not found next to misbench/; nothing to build")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", JOBS])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            die("build failed: " + " ".join(cmd))


def run_workload(args):
    cmd = [os.path.join(BUILD_DIR, "misbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "1" if args.trace else "0", "--workdir", WORK_DIR]
    if args.small:
        cmd.append("--small")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("workload %s exceeded %d s" % (args.workload, RUN_TIMEOUT_S))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        die("workload %s exited with status %d" % (args.workload, proc.returncode))
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="shrunken inputs, for the benchmark's own tests")
    args = parser.parse_args()

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die("unknown workload %r" % args.workload)
    build()
    raw = run_workload(args)

    expected = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in expected}
    got = set(raw["metrics"])
    if got != set(units):
        die("metric names differ from BENCHMARK.json: missing %s, extra %s"
            % (sorted(set(units) - got), sorted(got - set(units))))
    result = {
        "correct": bool(raw["correct"]) and raw["failed"] == 0 and raw["attempted"] >= 1,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {name: {"value": raw["metrics"][name], "unit": units[name]}
                    for name in sorted(units)},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
