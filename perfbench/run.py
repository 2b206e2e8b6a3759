#!/usr/bin/env python3
"""Builds the TATP benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tatp-1m --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest      # tests of the benchmark's checks

The benchmark is its own CMake project (perfbench/CMakeLists.txt); it is
built into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
and results and spans go to .bench_out/. Build output goes to stderr, so
the last line of stdout is the benchmark's JSON result. The exit code is
the benchmark's: 0 only when every correctness check passed.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def configured_source(bdir):
    """The source directory a build directory was configured for, or None."""
    try:
        with open(os.path.join(bdir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build(target):
    bdir = build_dir()
    source = configured_source(bdir)
    if source is not None and os.path.realpath(source) != os.path.realpath(HERE):
        shutil.rmtree(bdir)  # configured for a checkout at another path
        source = None
    if source is None:
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", bdir, "--target", target, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(bdir, target)


def main(argv):
    if argv == ["--selftest"]:
        binary = build("perfbench_checks_test")
        if binary is None:
            print("perfbench: build failed", file=sys.stderr)
            return 2
        return subprocess.run([binary]).returncode
    binary = build("perfbench")
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    out = os.path.join(ROOT, ".bench_out")
    os.makedirs(out, exist_ok=True)
    return subprocess.run([binary] + argv + ["--out", out]).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
