#!/usr/bin/env python3
"""Short-mode test of the benchmark itself.

    python3 perfbench/selftest.py [--seconds 2] [--workload NAME ...]

Runs every workload of BENCHMARK.json briefly with --trace 0 and --trace 1
and checks that each run exits 0, reports "correct": true, and emits
exactly the metric names BENCHMARK.json lists for that mode, each with the
listed unit. Run it from the repository root; exits 1 on any mismatch.
"""

import argparse
import json
import os
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=float, default=2.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    problems = []
    for workload in workloads:
        for trace in (0, 1):
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  env=dict(os.environ))
            label = "%s --trace %d" % (workload, trace)
            before = len(problems)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                problems.append("%s: exit code %d" % (label, proc.returncode))
                continue
            result = json.loads(lines[-1])
            metrics = result["metrics"]
            if not result["correct"] or result["failed"]:
                problems.append("%s: correct=%s failed=%d" % (
                    label, result["correct"], result["failed"]))
            if set(metrics) != set(expected[trace]):
                problems.append("%s: missing %s, unexpected %s" % (
                    label, sorted(set(expected[trace]) - set(metrics)),
                    sorted(set(metrics) - set(expected[trace]))))
            for name, unit in expected[trace].items():
                got = metrics.get(name, {}).get("unit")
                if got is not None and got != unit:
                    problems.append("%s: %s has unit %s, want %s" % (
                        label, name, got, unit))
            print("%-28s %s" % (label, "ok" if len(problems) == before
                                else "FAIL"), flush=True)
    for p in problems:
        print("FAIL " + p)
    print("selftest: %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
