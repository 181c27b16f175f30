#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

The first call configures and builds perfbench/ (and the library sources it
compiles from src/) into $CARGO_TARGET_DIR/perfbench, `.bench_build/perfbench`
when the variable is unset; later calls only rebuild what changed. Build
output goes to stderr, so the last line of stdout is the benchmark's JSON
result. With --trace 1 the spans are written to trace-<workload>-<seed>.jsonl
in the build directory. The exit code is the benchmark's: 0 when every
output check passed, 1 on a mismatch, 2 on a usage or build error.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["solve_road", "solve_road_lazy", "solve_rmat", "solve_kcore",
             "serve", "live_write"]


def build(build_dir):
    """Configures (once) and builds perfbench; returns the binary's path."""
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "service",
                                       "QueryEngine.h")):
        print("perfbench: the library sources (src/) are missing; run from "
              "a full checkout", file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace-out", os.path.join(
            build_dir, f"trace-{args.workload}-{args.seed}.jsonl")]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
