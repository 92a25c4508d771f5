#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perfbench/src, binary vpbench).

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper_round --seed 1 --seconds 10 --trace 0

Builds the libraries under src/ plus the benchmark with CMake (Release)
into $CARGO_TARGET_DIR (default .bench_build), then runs the workload.
Build output goes to standard error; the last line of standard output is
the benchmark's JSON result. Spans from traced runs and per-run scratch
files go to .bench_out/.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("paper_round", "whatif_sweep", "serve_live")
DEFAULT_SEED = 1


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(bench_dir, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(bench_dir), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "vpbench", "-j", jobs],
        stdout=sys.stderr, check=True)
    return build_dir / "vpbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench_dir = Path(__file__).resolve().parent
    root = bench_dir.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail(f"no repository sources at {root / 'src'}; run from a full checkout")
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        binary = build(bench_dir, build_dir)
    except (subprocess.CalledProcessError, OSError) as error:
        fail(f"build failed: {error}")

    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    sys.stdout.flush()
    result = subprocess.run(
        [str(binary), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--out-dir", str(out_dir)])
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
