#!/usr/bin/env python3
"""Builds the whole-run benchmark from this checkout's sources, then runs it.

Usage (from the repository root):
  python3 e2e_bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build goes to .bench_build/ at the repository root (an existing build is
only brought up to date). Build output goes to stderr, so the benchmark's
last line on stdout is its JSON result. Exits non-zero, without a result,
when the checkout holds no SCADDAR sources to build.
"""

import argparse
import fcntl
import os
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BUILD_TIMEOUT_S = 840


def build():
    """Configures once, then builds only the benchmark target and its
    libraries. A lock keeps concurrent invocations from racing."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "scaddar_e2e",
                      "-j", str(min(4, os.cpu_count() or 1))])
        for step in steps:
            run_step(step)


def run_step(step):
    """Runs one build command in its own process group, so a timeout stops
    the compilers it started too. Compiler temporaries stay in the build
    directory."""
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    proc = subprocess.Popen(step, stdout=sys.stderr, stderr=sys.stderr,
                            env=dict(os.environ, TMPDIR=tmp),
                            start_new_session=True)
    try:
        code = proc.wait(timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if code != 0:
        raise subprocess.CalledProcessError(code, step)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print(f"no SCADDAR sources under {ROOT}/src; nothing to benchmark",
              file=sys.stderr)
        return 2
    try:
        build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as err:
        print(f"build failed: {err}", file=sys.stderr)
        return 2

    binary = os.path.join(BUILD_DIR, "scaddar_e2e")
    out_dir = os.path.join(BUILD_DIR, "out")
    sys.stdout.flush()
    # exec: the benchmark replaces this process, so no child outlives it.
    os.execv(binary, [binary, "--workload", args.workload,
                      "--seed", str(args.seed),
                      "--seconds", str(args.seconds),
                      "--trace", args.trace, "--out-dir", out_dir])


if __name__ == "__main__":
    sys.exit(main())
