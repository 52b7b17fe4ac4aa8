#!/usr/bin/env python3
"""Build and run the EEWA benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles the repository's
libraries from src/) into $CARGO_TARGET_DIR, or .bench_build when that is
unset; later calls only re-check the build. The benchmark's output,
ending in one JSON line, is passed through unchanged. Exits non-zero,
without a result, when the build or the run fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "eewa_perfbench", "-j", jobs],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout must end with the result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "eewa_perfbench")


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    done = subprocess.run([binary] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
