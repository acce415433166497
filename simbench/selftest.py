#!/usr/bin/env python3
"""Seed test of the repository benchmark.

Run from the repository root:

    python3 simbench/selftest.py [--workload NAME ...]

For each workload it runs the harness twice with the default seed and
once with the held-out seed (both from simbench/metric_map.json), and
checks that the same seed gives identical SimResult digests and that a
different seed gives different ones.  Exits 0 when every check holds.
"""

import argparse
import json
import os
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (build() and run_harness() of the benchmark)


def digests(workload, seed):
    rec, _ = run.run_harness(["--workload", workload, "--seed", str(seed)])
    if rec is None:
        return None
    return [s["digest"] for s in rec["sims"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=run.WORKLOADS,
                    help="workload to test (repeatable; default: all)")
    args = ap.parse_args()
    with open(os.path.join(run.BENCH_DIR, "metric_map.json")) as f:
        seeds = json.load(f)["seeds"]
    run.build()
    ok = True
    for workload in args.workload or run.WORKLOADS:
        a1 = digests(workload, seeds["default"])
        a2 = digests(workload, seeds["default"])
        b = digests(workload, seeds["held_out"])
        same = a1 is not None and a1 == a2
        differ = (a1 is not None and b is not None and len(a1) == len(b)
                  and all(x != y for x, y in zip(a1, b)))
        print("%-14s same seed -> identical digests: %s; "
              "other seed -> different digests: %s"
              % (workload, "PASS" if same else "FAIL",
                 "PASS" if differ else "FAIL"))
        ok = ok and same and differ
    print("selftest:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
