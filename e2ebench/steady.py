#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

    python3 e2ebench/steady.py [--runs 10] [--sets 2] [--first-seed 1]
                               [--workload NAME ...]

Runs every workload (or the named ones) `runs` times, seed after seed, with
the run length from BENCHMARK.json, and prints for each end-to-end metric
the median, the quartiles, the quartile spread and the max-min range as
shares of the median, against the metric's bound. A metric is steady when
its quartile spread is below a third of its bound; setup_s is held to this
too. With --sets 2 the same seeds run twice: both sets must be steady, and
their medians must agree within the bound in either direction. Exits 1 when any metric is not
steady. Run it from the repository root, on an otherwise idle machine.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: correctness checks failed")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med, (max(values) - min(values)) / med


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    first = args.first_seed

    ok = True
    for workload in workloads:
        sets = []
        for _ in range(args.sets):
            seeds = range(first, first + args.runs)
            runs = []
            for seed in seeds:
                runs.append(run_once(workload, seed, bench["run_seconds"]))
                print(f"# {workload} seed {seed}: " + " ".join(
                    f"{m}={runs[-1][m]:.6g}" for m in bounds), flush=True)
            sets.append({m: [r[m] for r in runs] for m in bounds})
        print(f"\n{workload} ({args.runs} runs per set, seeds from {first})")
        print(f"  {'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'iqr/med':>9}{'range/med':>10}{'bound':>7}"
              f"{'2nd iqr':>9}{'2nd/1st':>9}")
        for name, spec in bounds.items():
            med, q1, q3, iqr, rng = summarize(sets[0][name])
            bound = spec["bound"]
            line = (f"  {name:<14}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}"
                    f"{iqr:>9.3f}{rng:>10.3f}{bound:>7.2f}")
            steady = iqr < bound / 3
            if len(sets) == 2:
                med2, _, _, iqr2, _ = summarize(sets[1][name])
                line += f"{iqr2:>9.3f}{med2 / med:>9.3f}"
                steady = (steady and iqr2 < bound / 3
                          and abs(med2 - med) / med <= bound)
            ok = ok and steady
            print(line + ("" if steady else "  <-- not steady"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
