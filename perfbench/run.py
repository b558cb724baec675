#!/usr/bin/env python3
"""End-to-end benchmark for qdel.

Builds the benchmark program and the qdel_serve daemon from the sources
next to this directory, then runs one workload:

    python3 perfbench/run.py \
        --workload offline-replay|serve-query|durable-ingest \
        --seed N --seconds S --trace 0|1

Build output goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout root; scratch files (synthesized traces, daemon state, logs,
spans) go to its perfbench-work subdirectory. The last line of standard
output is the JSON result; see perfbench/README.md for the metrics.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
WORKLOADS = ("offline-replay", "serve-query", "durable-ingest")
# A run must end well inside the 180 s a caller allows it.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_root):
    build_dir = os.path.join(build_root, "perfbench")
    log_path = os.path.join(build_root, "perfbench-build.log")
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "qdel_bench", "qdel_serve"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              stdin=subprocess.DEVNULL).returncode != 0:
                with open(log_path) as text:
                    sys.stderr.write(text.read()[-4000:])
                fail("build failed (log: %s)" % log_path)
    return build_dir


def reap_group(child):
    """Kill whatever is left of the run's process group and wait until
    it is gone (normally nothing is: qdel_bench stops its daemons itself)."""
    if child.poll() is None:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
    for _ in range(500):
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    for needed in ("src/CMakeLists.txt", "tools/qdel_serve.cc"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("qdel sources not found (%s is missing); run from a full "
                 "checkout" % needed)

    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                   ".bench_build"))
    os.makedirs(build_root, exist_ok=True)
    build_dir = build(build_root)
    work_dir = os.path.join(build_root, "perfbench-work")
    os.makedirs(work_dir, exist_ok=True)

    command = [os.path.join(build_dir, "qdel_bench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--bin-dir", os.path.join(build_dir, "qdel_tools"),
               "--work-dir", work_dir]
    # Its own process group, so a timeout also takes down the daemons
    # it spawned.
    child = subprocess.Popen(command, stdin=subprocess.DEVNULL,
                             start_new_session=True)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    reap_group(child)
    if code is None:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
