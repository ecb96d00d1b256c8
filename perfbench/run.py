#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload suite|service|eco --seed N \
        --seconds S --trace 0|1

The perfbench binary is configured and built with CMake under the build
directory (``$CARGO_TARGET_DIR`` when set, else ``.bench_build``); later
runs only re-check the build.  Build output goes to stderr, so the last
line of stdout is the JSON result.  Exits non-zero without a
result when the build or the run fails.
"""
import fcntl
import os
import signal
import subprocess
import sys
import time

RUN_TIMEOUT_S = 170
# Pause after a build that compiled something: on the 4-vCPU VM this
# benchmark was tuned on, runs right after the minute-long parallel build
# read up to 20% slower than later ones.
SETTLE_AFTER_BUILD_S = 60


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(source_dir, build_dir):
    os.makedirs(build_dir, exist_ok=True)
    # One build at a time per build directory.
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        # Configure until a configure has produced a build system.
        if not os.path.exists(os.path.join(build_dir, "Makefile")):
            subprocess.run(
                ["cmake", "-S", source_dir, "-B", build_dir,
                 "-G", "Unix Makefiles", "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr)
        binary = os.path.join(build_dir, "perfbench")
        before = os.path.getmtime(binary) if os.path.exists(binary) else None
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(
            ["cmake", "--build", build_dir, "--target", "perfbench",
             "-j", jobs],
            check=True, stdout=sys.stderr)
        if os.path.getmtime(binary) != before:
            log(f"built; settling for {SETTLE_AFTER_BUILD_S} s")
            time.sleep(SETTLE_AFTER_BUILD_S)
    return binary


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(build_root, "perfbench"))
    try:
        binary = build(here, build_dir)
    except (subprocess.CalledProcessError, OSError) as error:
        log(f"build failed: {error}")
        return 2

    # Own process group, so a timeout also stops the binary's children
    # (the service workload's load generator).
    process = subprocess.Popen([binary] + sys.argv[1:],
                               start_new_session=True)
    try:
        return process.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s; stopping it")
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        return 3


if __name__ == "__main__":
    sys.exit(main())
