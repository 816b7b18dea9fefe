#!/usr/bin/env python3
"""Builds the end-to-end benchmark program and runs one workload.

    python3 bench/e2e/run.py --workload point_hot --seed 1 --seconds 25 --trace 0

The program is built from this checkout's own sources under build_e2e/
(once; later runs only re-check the build). The last line of stdout is
the run's JSON result: {"correct", "attempted", "failed", "metrics"}.
With --trace 1 the metrics are the per-layer ones and the spans go to
build_e2e/bench_trace_<workload>.json. The workloads are listed in
BENCHMARK.json; README.md beside this file documents them and the metrics.

Exit status: 0 when every op succeeded and every served result matched
the bench's model; 1 with "correct": false otherwise; 2 without a result
when there is nothing to build, the build fails or an argument is wrong.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build_e2e")
BINARY = os.path.join(BUILD, "e2e", "e2e_bench")
RUN_TIMEOUT_S = 170
USAGE_EXIT = 2


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(USAGE_EXIT)


def failed_result(message):
    """Reports a run that produced no result of its own as incorrect."""
    print("run.py: " + message, file=sys.stderr)
    print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                      "metrics": {}}))
    return 1


def build(env):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no library sources in " + ROOT)
    os.makedirs(env["TMPDIR"], exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    # Concurrent runs in one checkout share the build: one builds, the
    # others wait on the lock and then find it up to date.
    with open(os.path.join(BUILD, "build.lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        # A checkout copied from elsewhere carries a cache that points at
        # the old source tree; CMake refuses to reuse it.
        cache = os.path.join(os.path.dirname(BINARY), "CMakeCache.txt")
        if os.path.isfile(cache):
            with open(cache) as f:
                if "CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE not in f.read():
                    shutil.rmtree(os.path.dirname(BINARY))
        steps = [["cmake", "-S", HERE, "-B", os.path.dirname(BINARY),
                  "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", os.path.dirname(BINARY), "-j", jobs,
                  "--target", "e2e_bench"]]
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              env=env).returncode != 0:
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                fail("build failed; log in " + log_path)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    build(env)

    data_dir = os.path.join(BUILD, "run", "%s-%d" % (args.workload, os.getpid()))
    command = [BINARY, "--workload=" + args.workload,
               "--seed=%d" % args.seed, "--seconds=%g" % args.seconds,
               "--trace=%d" % args.trace, "--dir=" + data_dir]
    if args.trace:
        command.append("--trace_out=" + os.path.join(
            BUILD, "bench_trace_%s.json" % args.workload))
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, env=env,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return failed_result("e2e_bench timed out")
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    if run.returncode == USAGE_EXIT:
        return USAGE_EXIT  # e2e_bench printed its usage
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return failed_result("e2e_bench exited %d without a result" %
                             run.returncode)
    print(json.dumps(result))
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
