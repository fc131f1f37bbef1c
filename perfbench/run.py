#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload kv-update --seed 1 --seconds 10 --trace 0

Run from the repository root. The first call configures and builds
perfbench (CMake, Release) against ../src into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset; later calls rebuild incrementally. The program's lines are
passed through; the last line printed is its JSON result, checked
first against the metric names and units in BENCHMARK.json. Exit code
0 only when the build, the run, its correctness gate and that check
all pass.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configure once, then build the program; returns its path."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", "4"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result.
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check(result, trace):
    """Problems with the result line, as a list of strings."""
    want = expected_metrics(trace)
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    problems = []
    for name in sorted(set(want) - set(got)):
        problems.append("missing metric " + name)
    for name in sorted(set(got) - set(want)):
        problems.append("metric not in BENCHMARK.json: " + name)
    for name in sorted(set(want) & set(got)):
        if want[name] != got[name]:
            problems.append("unit of %s is %s, BENCHMARK.json says %s"
                            % (name, got[name], want[name]))
    if not result.get("correct") or result.get("failed", 1) != 0:
        problems.append("correctness gate failed")
    return problems


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["kv-update", "kv-read", "alloc-churn"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args()

    prog = build()
    trace_dir = os.path.join(build_dir(), "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [prog, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--trace-dir", trace_dir]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run has killed and reaped the program.
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    lines = r.stdout.rstrip("\n").splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        result = {}
    problems = check(result, bool(a.trace)) if result else ["no result"]
    if r.returncode != 0:
        problems.append("program exited with %d" % r.returncode)
    if problems:
        for msg in problems:
            print("perfbench: " + msg, file=sys.stderr)
        sys.exit(1)
    print(lines[-1])
    sys.stdout.flush()


if __name__ == "__main__":
    main()
