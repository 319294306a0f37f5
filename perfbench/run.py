#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

    python3 perfbench/run.py --workload serve_static --seed 7 --seconds 25 --trace 0

Run from the root of a checkout. The benchmark program is built from source
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) with
CMake, in Release with -march=native, the same flags as the root build.
Everything the run writes stays under that build directory.

The last line of stdout is one JSON object with exactly the keys
`correct`, `attempted`, `failed` and `metrics`. Earlier lines are the
program's log: `ENV {...}` records the environment, `REF {...}` the run's
deterministic values, each under a key that names what it depends on (for
example `serve.prepass_hits`, `train.evaluate_auc.epochs10`). run.py keeps
the first value seen for each key and program binary, and counts any later
run whose value differs as a failed correctness check.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

WORKLOADS = ("serve_static", "serve_ingest", "train_roi")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configures (once) and builds the program; returns the binary path."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                   build_dir, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr,
                           stderr=sys.stderr)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "zoomer_perfbench")


def check_refs(build_dir, binary, refs, result):
    """Compares this run's deterministic values with those of earlier runs
    of the same program binary. Each REF key names everything its value
    depends on, so runs of any seed, length or trace mode check each
    other wherever a key recurs."""
    if not refs:
        return
    with open(binary, "rb") as f:
        build_id = hashlib.sha1(f.read()).hexdigest()[:16]
    ref_dir = os.path.join(build_dir, "ref")
    os.makedirs(ref_dir, exist_ok=True)
    path = os.path.join(ref_dir, build_id + ".json")
    with open(path + ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        first = {}
        if os.path.exists(path):
            with open(path) as f:
                first = json.load(f)
        for key, value in sorted(refs.items()):
            if key not in first:
                first[key] = value
                continue
            result["attempted"] += 1
            if first[key] != value:
                result["failed"] += 1
                result["correct"] = False
                print("# CHECK FAILED: %s = %r differs from %r of an earlier "
                      "run" % (key, value, first[key]), flush=True)
        with open(path + ".tmp", "w") as f:
            json.dump(first, f, sort_keys=True)
        os.replace(path + ".tmp", path)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "perfbench", "CMakeLists.txt")):
        log("run from the repository root (perfbench/ not found)")
        return 2
    if not os.path.isdir(os.path.join(root, "src")):
        log("library sources (src/) not found: nothing to build")
        return 2
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(build_root), "perfbench")
    try:
        binary = build(root, build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        log("build failed: %s" % e)
        return 2

    scratch = tempfile.mkdtemp(prefix="run-", dir=build_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch]
    if args.trace:
        cmd += ["--spans", os.path.join(build_dir,
                                        "spans-%s.jsonl" % args.workload)]
    lines = []
    try:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            log("zoomer_perfbench did not finish within %d s" % RUN_TIMEOUT_S)
            return 3
        lines = out.splitlines()
        if proc.returncode != 0:
            sys.stdout.write("\n".join(lines) + "\n")
            log("zoomer_perfbench exited with code %d" % proc.returncode)
            return 3
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if not lines:
        log("zoomer_perfbench printed nothing")
        return 3
    refs = {}
    for line in lines[:-1]:
        print(line)
        if line.startswith("REF "):
            refs = json.loads(line[4:])
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("last line is not JSON: %r" % lines[-1])
        return 3
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        log("unexpected result keys: %s" % sorted(result))
        return 3
    check_refs(build_dir, binary, refs, result)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
