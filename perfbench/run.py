#!/usr/bin/env python3
"""Build the xres benchmark executable and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside an xres checkout: the executable (perfbench/src) is
built with CMake into .bench_build/perfbench against the library sources of
the checkout this file sits in, then run. With --trace 0, set-up is first
probed SETUP_PROBES times in short separate processes; the measured run
reports the median set-up time over the probes and itself. The last line on
stdout is the executable's JSON result and the exit code is its exit code; build
output goes to stderr. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import time

SETUP_PROBES = 8
RUN_TIMEOUT_S = 170

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "run")
BINARY = os.path.join(BUILD_DIR, "xres_perfbench")


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configure (once) and build the executable; exits non-zero on failure."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"no xres source tree at {ROOT}: CMakeLists.txt and src/ are needed")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr, check=False).returncode != 0:
            fail("cmake configure failed")
    jobs = str(len(os.sched_getaffinity(0)))
    compile_cmd = ["cmake", "--build", BUILD_DIR, "--target", "xres_perfbench", "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr, check=False).returncode != 0:
        fail("build failed")


def spawn_args():
    """--spawn-ns for a process about to be started: set-up is timed from here."""
    return ["--spawn-ns", str(time.monotonic_ns())]


def probe_setup(base):
    cmd = base + ["--setup-only"] + spawn_args()
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=60, check=False)
    if out.returncode != 0:
        fail(f"set-up probe exited with {out.returncode}", 1)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in (0, 600]")

    build()
    os.makedirs(WORK_DIR, exist_ok=True)
    base = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
            "--work-dir", WORK_DIR]
    cmd = base + ["--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        if args.trace == 0:
            probes = [probe_setup(base) for _ in range(SETUP_PROBES)]
            cmd += ["--setup-probes", ",".join(repr(p) for p in probes)]
        sys.stdout.flush()
        result = subprocess.run(cmd + spawn_args(), timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out", 1)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
