#!/usr/bin/env python3
"""Build and run the end-to-end simulator benchmark.

    python3 e2e_bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
simulator sources plus the benchmark binary (CMake, Release) under
$CARGO_TARGET_DIR/e2e_bench (default .bench_build/e2e_bench); later calls
only rebuild what changed. Build output goes to stderr, so the last line
of stdout is the benchmark's JSON result. The exit code is the
benchmark's: nonzero on any correctness or conservation failure.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"e2e_bench/run.py: {msg}", file=sys.stderr)
    return 2


def build(build_dir):
    """Configure (once) and build; returns the binary path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cfg += ["-G", "Ninja"]
        if subprocess.run(cfg, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    return os.path.join(build_dir, "e2e_bench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src")):
        return fail(f"simulator sources not found at {os.path.join(ROOT, 'src')}")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "e2e_bench")
    binary = build(build_dir)
    if binary is None:
        return fail("build failed")

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
