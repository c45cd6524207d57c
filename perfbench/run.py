#!/usr/bin/env python3
"""Builds the perfbench binary and runs one workload.

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 30 \
        --trace 0

Run it from the root of the repository. Every run configures and builds
the library and the binary in Release under .bench_build/perfbench (or
under $CARGO_TARGET_DIR when that is set); the first build takes about a
minute on 4 cores, later runs rebuild only what changed. Build output goes
to standard error. The binary checks every answer against its own oracle
and prints its result as one JSON object on the last line of standard
output; this script exits with the binary's exit code. With --trace 1 the
spans are written to .bench_build/traces/<workload>-<seed>.jsonl.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_JOBS = "4"
# The binary itself stops after --seconds plus its set-up; this only guards
# against a hang.
RUN_TIMEOUT_S = 170


def build_root():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures and builds the binary; returns its path or None."""
    build_dir = os.path.join(build_root(), "perfbench")
    # Configuring an existing tree is quick and picks up build-file changes.
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "--target", "perfbench",
              "-j", BUILD_JOBS]]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return None
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["serve_hot", "pref_adhoc", "update_stream"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 1
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(build_root(), "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out", os.path.join(
            trace_dir, "%s-%d.jsonl" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
