#!/usr/bin/env python3
"""Build and run the ticket-service benchmark.

    python3 ticketbench/run.py --workload campus-acl-4t --seed 1 --seconds 20 --trace 0

Configures ticketbench/ (which compiles the heimdall sources under src/) as a
Release build in .bench_build/ticketbench, runs the ticket_bench program, and
re-prints its report. The last line of standard output is the program's JSON
result: {"correct", "attempted", "failed", "metrics"}. Build output goes to
standard error. Exits non-zero, without a result, when the sources are
missing, the build fails, or the run fails its correctness gate.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "ticketbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "ticketbench")
BINARY = os.path.join(BUILD_DIR, "ticket_bench")
RUN_TIMEOUT_S = 175
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message, code=2):
    print(f"ticketbench: {message}", file=sys.stderr)
    sys.exit(code)


def cached_build_type():
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if not os.path.exists(cache):
        return None
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                return line.split("=", 1)[1].strip()
    return None


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("heimdall sources (src/) not found next to ticketbench/")
    steps = []
    if cached_build_type() != "Release":
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    build()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(BUILD_DIR, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--spans-out", os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.json")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", code=4)
    if run.returncode != 0:
        sys.stdout.write(run.stdout)
        fail(f"ticket_bench exited with {run.returncode}", code=max(run.returncode, 1))
    lines = run.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail("ticket_bench printed no JSON result", code=5)
    if set(result) != RESULT_KEYS or result["attempted"] < 1:
        fail("malformed result: " + lines[-1], code=5)
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
