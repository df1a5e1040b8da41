#!/usr/bin/env python3
"""Builds the MUVE benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload voice_4k --seed 1 --seconds 20 --trace 0

Run from the root of a MUVE checkout. The first run configures and
builds perfbench/ (the repository's libraries and the muve_bench
harness) into .bench_build/; later runs rebuild only what changed. The
last line of standard output is the run's result as one JSON object.
With --trace 1 the harness also writes its spans, in the Chrome
trace-event format, to .bench_build/traces/.

Exits non-zero, without a result, when the checkout cannot be built,
when the harness fails, or when it does not finish in time.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
HERE = os.path.dirname(os.path.abspath(__file__))
TARGETS = ["muve_bench"]
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: run from the root of a MUVE checkout "
                 "(no src/CMakeLists.txt here)")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if _has("ninja") else []
        _check([
            "cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"
        ] + generator)
    _check(["cmake", "--build", BUILD, "-j", jobs, "--target"] + TARGETS)


def _has(program):
    return any(
        os.access(os.path.join(d, program), os.X_OK)
        for d in os.environ.get("PATH", "").split(os.pathsep))


def _check(cmd):
    # Build output goes to stderr so stdout ends with the result line.
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.exit("run.py: build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build()
    cmd = [
        os.path.join(BUILD, "muve_bench"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace)
    ]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += [
            "--trace_out",
            os.path.join(traces, "%s_seed%d.json" % (args.workload, args.seed))
        ]
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("run.py: %s did not finish within %d s" %
                 (args.workload, RUN_TIMEOUT_S))
    if code != 0:
        sys.exit("run.py: muve_bench exited with %d" % code)


if __name__ == "__main__":
    main()
