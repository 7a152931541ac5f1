#!/usr/bin/env python3
"""Builds the benchmark from source, then runs one workload.

    python3 perfbench/run.py --workload train|serve-write \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
library and the benchmark into .bench_build/perfbench (a few minutes); later
runs only re-check the build. The benchmark's result is the last line of
standard output (see perfbench/README.md). A traced run also writes its spans
to .bench_build/traces/.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
# Compiler and program temporaries stay inside the checkout too.
TMP_DIR = os.path.join(ROOT, ".bench_build", "tmp")
WORKLOADS = ("train", "serve-write")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def run_step(command, env, timeout):
    """Runs a build step with its output on stderr; fails the run on error."""
    try:
        done = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                              env=env, timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(command)}")
    if done.returncode != 0:
        fail(f"failed ({done.returncode}): {' '.join(command)}")


def build(env):
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_step(["cmake", "-S", HERE, "-B", BUILD_DIR,
                  "-DCMAKE_BUILD_TYPE=Release"], env, BUILD_TIMEOUT_S)
    run_step(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
              "-j", str(os.cpu_count() or 1)], env, BUILD_TIMEOUT_S)


def main():
    args = parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    os.makedirs(TMP_DIR, exist_ok=True)
    os.makedirs(TRACE_DIR, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = TMP_DIR
    env["OMP_NUM_THREADS"] = "1"
    for name in ("SES_FAULT_SPEC", "SES_KERNEL_VARIANT",
                 "SES_KERNEL_AUTOTUNE"):
        env.pop(name, None)
    build(env)
    command = [os.path.join(BUILD_DIR, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--digests", os.path.join(HERE, "digests.tsv"),
               "--trace-dir", TRACE_DIR]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, env=env,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S, check=False,
                              text=True)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
