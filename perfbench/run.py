#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR, or
to .bench_build when that is unset (configured once, then rebuilt
incrementally). The program's report goes to stdout; its last line is the
JSON result. Exit codes: 0 ok, 1 a correctness check failed (the result
says "correct": false), anything else means no result (the build or the
set-up failed).
"""
import argparse
import os
import re
import subprocess
import sys

WORKLOADS = ("oracle_open", "search_mixed")
RUN_TIMEOUT_S = 170


def fail(msg, log=None):
    sys.stderr.write("perfbench: %s\n" % msg)
    if log and os.path.exists(log):
        with open(log, errors="replace") as f:
            sys.stderr.write("".join(f.readlines()[-40:]))
    sys.exit(3)


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log = os.path.join(build_dir, "perfbench-build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "perfbench"])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
                fail("build step failed: %s" % " ".join(cmd), log)
    return os.path.join(build_dir, "perfbench")


def git_rev():
    """The checkout's commit, read only from its own .git (never a parent's)."""
    if not os.path.isdir(".git"):
        return "unknown"
    try:
        rev = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             env=dict(os.environ, GIT_DIR=".git"),
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    out = rev.stdout.strip()
    return out if rev.returncode == 0 and re.fullmatch(r"[0-9a-f]+", out) else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds within 1..60")
    for needed in ("CMakeLists.txt", "src", os.path.join("perfbench", "CMakeLists.txt")):
        if not os.path.exists(needed):
            fail("run from the repository root: %s is missing" % needed)

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(build_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-rev", git_rev()]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    if proc.returncode not in (0, 1):
        fail("%s exited with code %d" % (args.workload, proc.returncode))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
