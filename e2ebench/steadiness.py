#!/usr/bin/env python3
"""Runs the benchmark repeatedly and reports how steady each metric is.

    python3 e2ebench/steadiness.py --runs 10 [--sets 2] [--trace 0]
                                   [--workloads read-zipf ...] [--out runs.json]

Each set runs every workload --runs times, one run per workload per round,
in alternating order (forward on even rounds, reversed on odd ones), each run
with its own seed. For each workload and metric it prints the median, the
quartiles (statistics.quantiles(values, n=4)) and the relative spread
(Q3 - Q1) / median. An end-to-end metric whose spread exceeds a tenth is
flagged, and so is one above a third of its bound in BENCHMARK.json. With
--sets 2 the second set uses fresh seeds and is compared with the first:
each end-to-end median may be worse than the first by at most its bound, and
the share of failed operations must be identical. The exit code is non-zero
when a run fails or a check does not hold.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "e2ebench" / "run.py"


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"steadiness.py: {workload} seed {seed} failed (exit {proc.returncode})")
    return json.loads(lines[-1])


def run_set(workloads, runs, seed_base, seconds, trace):
    results = {w: [] for w in workloads}
    for r in range(runs):
        order = workloads if r % 2 == 0 else list(reversed(workloads))
        for w in order:
            result = run_once(w, seed_base + r, seconds, trace)
            results[w].append(result)
            print(f"  round {r} {w} seed {seed_base + r}: attempted {result['attempted']} "
                  f"failed {result['failed']}", file=sys.stderr, flush=True)
    return results


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else float("inf")
    return median, q1, q3, spread


def report(results, spec, trace, label):
    bounds = {m["name"]: m for m in spec.get("end_to_end", [])}
    flagged = []
    medians = {}
    print(f"== {label} ==")
    for workload, runs in results.items():
        names = list(runs[0]["metrics"])
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"{workload}: {len(runs)} runs, failed share {shares}")
        print(f"  {'metric':42s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
        for name in names:
            values = [r["metrics"][name]["value"] for r in runs]
            median, q1, q3, spread = summarize(values)
            medians[(workload, name)] = median
            flag = ""
            if not trace:
                bound = bounds.get(name, {}).get("bound")
                if spread > 0.1:
                    flag += " >0.1"
                if bound is not None and name != "setup_s" and spread > bound / 3:
                    flag += f" >bound/3({bound / 3:.3f})"
                if flag:
                    flagged.append((workload, name, spread))
            print(f"  {name:42s} {median:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.4f}{flag}")
    return medians, flagged


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--out", help="write every run's JSON result here")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]

    sets = []
    for s in range(args.sets):
        seed_base = args.seed_base + 1000 * s
        print(f"set {s}: {args.runs} rounds of {workloads}, seeds from {seed_base}",
              file=sys.stderr, flush=True)
        sets.append(run_set(workloads, args.runs, seed_base, seconds, args.trace))
    if args.out:
        Path(args.out).write_text(json.dumps(sets, indent=1))

    ok = True
    summaries = [report(results, spec, args.trace, f"set {i}") for i, results in enumerate(sets)]
    if any(flagged for _, flagged in summaries):
        ok = False
    if len(sets) == 2 and not args.trace:
        print("== set 1 against set 0 ==")
        first, second = summaries[0][0], summaries[1][0]
        for m in spec["end_to_end"]:
            for workload in workloads:
                a, b = first[(workload, m["name"])], second[(workload, m["name"])]
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                verdict = "ok" if worse <= m["bound"] else "WORSE THAN BOUND"
                ok = ok and worse <= m["bound"]
                print(f"  {workload:14s} {m['name']:22s} {a:12.4f} -> {b:12.4f} "
                      f"worse by {worse:+.4f} (bound {m['bound']}) {verdict}")
        for workload in workloads:
            shares = [sorted({r["failed"] / r["attempted"] for r in results[workload]})
                      for results in sets]
            same = shares[0] == shares[1] and len(shares[0]) == 1
            ok = ok and same
            print(f"  {workload:14s} failed share {shares[0]} vs {shares[1]}: "
                  f"{'ok' if same else 'DIFFERENT'}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
