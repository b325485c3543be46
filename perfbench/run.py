#!/usr/bin/env python3
"""Build and run the service benchmark (fgperf) from a source checkout.

    python3 perfbench/run.py --workload churn --seed 1 --seconds 35 --trace 0

Configures perfbench/CMakeLists.txt into the build directory
($CARGO_TARGET_DIR if set, else .bench_build, relative to the checkout root),
builds fgperf in Release, runs it, and passes its output through. The last
line of standard output is fgperf's JSON result. The exit code is fgperf's:
nonzero when a correctness check failed. A failed build exits nonzero
without printing a result. --tiny and --flip-log-byte are forwarded (the
self-test uses them).
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    cmake_dir = os.path.join(build_dir, "cmake")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "--target", "fgperf", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the JSON result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            if cmd[1] == "-S":
                shutil.rmtree(cmake_dir, ignore_errors=True)
            return None
    return os.path.join(cmake_dir, "fgperf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--flip-log-byte", action="store_true")
    args = ap.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    if binary is None:
        log("build failed")
        return 1

    scratch = os.path.join(build_dir, "fgperf-scratch")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--scratch", scratch]
    if args.tiny:
        cmd.append("--tiny")
    if args.flip_log_byte:
        cmd.append("--flip-log-byte")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"fgperf did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"fgperf printed no result (exit {proc.returncode})")
        return proc.returncode or 1
    if not isinstance(result, dict) or "metrics" not in result:
        log("fgperf's last line is not a result")
        return proc.returncode or 1
    print("\n".join(lines))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
