#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

    python3 e2ebench/run.py --workload read-zipf --seed 7 --seconds 5 --trace 0

Run it from the root of a checkout. The first run configures and compiles
the program's libraries and the benchmark program, tebis_e2e, into
.bench_build/e2ebench (a few minutes); later runs only re-check the build.
Its output is passed through, so the last line of stdout is its JSON result.
When BENCHMARK.json sits next to e2ebench/, the printed metric names are
checked against it. The exit code is tebis_e2e's (0 only for a correct run),
or non-zero when the build or the check fails.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "e2ebench"
BUILD_DIR = ROOT / ".bench_build" / "e2ebench"
RUN_TIMEOUT_S = 170
BUILD_JOBS = str(min(3, os.cpu_count() or 1))


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def quiet(command, what):
    """Runs a build step, showing its output only when it fails."""
    step = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if step.returncode != 0:
        sys.stderr.write(step.stdout)
        fail(f"{what} failed")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"program sources not found under {ROOT / 'src'}")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        quiet(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], "cmake configure")
    quiet(["cmake", "--build", str(BUILD_DIR), "-j", BUILD_JOBS,
           "--target", "tebis_e2e", "percentiles_test"], "build")
    quiet([str(BUILD_DIR / "percentiles_test")], "percentile helper test")


def check_names(result, trace):
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return
    spec = json.loads(spec_path.read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if wanted != got:
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        units = sorted(n for n in set(wanted) & set(got) if wanted[n] != got[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, "
             f"unit mismatch {units}", code=3)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--break-oracle", action="store_true",
                        help="corrupt the expected values; the run must then fail")
    args = parser.parse_args()

    build()
    command = [str(BUILD_DIR / "tebis_e2e"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        command += ["--spans-out", str(BUILD_DIR / f"spans-{args.workload}.tsv")]
    if args.break_oracle:
        command.append("--break-oracle")
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode != 0:
        sys.exit(run.returncode)
    lines = run.stdout.strip().splitlines()
    if not lines:
        fail("benchmark printed no result")
    check_names(json.loads(lines[-1]), args.trace)


if __name__ == "__main__":
    main()
