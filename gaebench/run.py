#!/usr/bin/env python3
"""Builds and runs the GAE service benchmark.

Run from the repository root:

    python3 gaebench/run.py --workload steer_rw --seed 1 --seconds 40 --trace 0
    python3 gaebench/run.py --self-test

The first call configures and builds gaebench/ (which compiles the service
libraries from src/) into .bench_build/ under the repository root, or into
$CARGO_TARGET_DIR when that is set; later calls rebuild incrementally. Build
output goes to stderr, so the benchmark's last stdout line stays its JSON
result. The exit code is the benchmark's, or non-zero when the build fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "gaebench")


def build(target):
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)  # retry the configure next time
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", out, "--target", target, "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(out, target)


def main():
    args = sys.argv[1:]
    target = "gaebench_test" if args == ["--self-test"] else "gae_bench"
    binary = build(target)
    if binary is None:
        print("gaebench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([binary] + ([] if target == "gaebench_test" else args)).returncode


if __name__ == "__main__":
    sys.exit(main())
