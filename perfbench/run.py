#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload clean-50k --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The first run configures and compiles perfbench/ (which compiles the vmat
library from src/) into .bench_build/; later runs only re-check the build.
Build output goes to stderr; the workload's stdout is passed through, and
its last line is the JSON result. Exits non-zero, without a result line,
when the sources are missing or the build or the run fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
# A workload runs for --seconds plus a few seconds of set-up; one still
# running after this long is hung, and is stopped.
RUN_TIMEOUT_S = 170


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: src/ is missing; nothing to build")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", target, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(BUILD, target)


def main():
    args = sys.argv[1:]
    target = "perfbench_selftest" if args == ["--selftest"] else "perfbench"
    try:
        binary = build(target)
    except (subprocess.CalledProcessError, OSError) as err:
        sys.exit(f"perfbench: build failed: {err}")
    command = [binary] if target == "perfbench_selftest" else [binary] + args
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")


if __name__ == "__main__":
    sys.exit(main())
