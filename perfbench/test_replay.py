#!/usr/bin/env python3
"""The benchmark's own replay test.

    python3 perfbench/test_replay.py

Runs kv-update twice with one seed and a fixed op count (--ops, so
the amount of work does not depend on host speed) and asserts that
the inputs hash the same and that every virtual-time figure and the
counts stats.flush.total and stats.tx.commits repeat exactly. A
third run with another seed must hash differently. kv-update has one
client, so nothing in it depends on thread scheduling.
"""

import json
import re
import subprocess
import sys

import run

OPS = "50000"
EXACT = ["vops_per_s", "put_vus_p50", "put_vus_p99", "recover_vms"]
COUNTS = ["stats.flush.total", "stats.tx.commits"]


def replay(prog, seed):
    out = subprocess.run(
        [prog, "--workload", "kv-update", "--seed", str(seed),
         "--seconds", "1", "--trace", "0", "--ops", OPS],
        stdout=subprocess.PIPE, text=True, timeout=run.RUN_TIMEOUT_S)
    if out.returncode != 0:
        sys.exit("run failed:\n" + out.stdout)
    lines = out.stdout.splitlines()
    metrics = json.loads(lines[-1])["metrics"]
    got = {name: metrics[name]["value"] for name in EXACT}
    for line in lines:
        m = re.match(r"info +workload \S+ seed \d+ input hash (\w+)", line)
        if m:
            got["input hash"] = m.group(1)
        m = re.match(r"info +ctl (\S+) (\d+) -> (\d+)", line)
        if m and m.group(1) in COUNTS:
            got[m.group(1)] = int(m.group(3)) - int(m.group(2))
    missing = set(EXACT + COUNTS + ["input hash"]) - set(got)
    if missing:
        sys.exit("output lacks " + ", ".join(sorted(missing)))
    return got


def main():
    prog = run.build()
    first, second = replay(prog, 7), replay(prog, 7)
    other = replay(prog, 8)
    failed = False
    for key in sorted(first):
        same = first[key] == second[key]
        print("%-20s %-22s %-22s %s" % (key, first[key], second[key],
                                        "same" if same else "DIFFERS"))
        failed |= not same
    if other["input hash"] == first["input hash"]:
        print("seeds 7 and 8 hash to the same inputs")
        failed = True
    print("FAIL" if failed else "PASS")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
