#!/usr/bin/env python3
"""Builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload build|serve|reduce --seed N \
        --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under perfbench/; build output goes to stderr so
the last stdout line stays the result object printed by the binary.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)


def main():
    # The library is built from the repository sources next to this
    # directory; without them there is nothing to measure.
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            return fail(f"{needed} not found next to perfbench/; run from a "
                        "full checkout of the repository")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        return fail(f"build failed: {error}")
    binary = os.path.join(build_dir, "perfbench")
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
