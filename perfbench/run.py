#!/usr/bin/env python3
"""Build the Flecc benchmark harness from source and run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload fleet_pull --seed 1 --seconds 10 --trace 0

The harness is configured under .bench_build/ (or $CARGO_TARGET_DIR,
relative to the checkout root) on first use and rebuilt incrementally
after that; build output goes to stderr. Every other flag is passed to
the flecc_perfbench binary, whose last stdout line is the JSON result.
The exit code is the binary's: nonzero when a correctness check failed.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configure (once) and build the harness; return the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: Flecc sources (src/) not found next to perfbench/")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "--target", "flecc_perfbench",
                    "-j", str(min(4, os.cpu_count() or 1))],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, "flecc_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = parser.parse_known_args()
    try:
        binary = build()
    except subprocess.CalledProcessError as e:
        sys.exit(f"perfbench: build failed ({e})")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
