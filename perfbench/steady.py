"""Steadiness check: two sets of runs of one workload must agree.

    python3 perfbench/steady.py --workload search [--runs 10]

Run from the root of a checkout.  Runs ``perfbench/run.py`` as set A with
seeds 1..R, then as set B with seeds R+1..2R, one run at a time, with
the run length from ``BENCHMARK.json``.
For each end-to-end metric it prints each set's median, quartiles and
spread (quartile distance over median).  It exits 1 when any run is
incorrect, when the share of failed operations differs between the sets,
when a spread exceeds the metric's bound, or
when set B's median is worse than set A's by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path


def run_set(workload: str, seeds, seconds) -> list[dict]:
    results = []
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=900,
        )
        if proc.returncode != 0:
            sys.exit(f"run with seed {seed} exited {proc.returncode}:\n{proc.stderr}")
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        print(f"  seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in results[-1]["metrics"].items()), flush=True)
    return results


def summary(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    bench = json.loads(Path("BENCHMARK.json").read_text())

    sets = {}
    for name, first in (("A", 1), ("B", 1 + args.runs)):
        print(f"set {name}", flush=True)
        sets[name] = run_set(args.workload, range(first, first + args.runs), bench["run_seconds"])

    bad = []
    for name, results in sets.items():
        if not all(r["correct"] for r in results):
            bad.append(f"set {name} has an incorrect run")
    shares = {name: {Fraction(r["failed"], r["attempted"]) for r in rs} for name, rs in sets.items()}
    if len(shares["A"] | shares["B"]) != 1:
        bad.append(f"failed shares differ: {shares}")

    print(f"\n{'metric':14s} {'set':3s} {'median':>11s} {'q1':>11s} {'q3':>11s} {'spread':>7s} {'bound':>6s}")
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        stats = {}
        for s, results in sets.items():
            stats[s] = summary([r["metrics"][name]["value"] for r in results])
            median, q1, q3, spread = stats[s]
            print(f"{name:14s} {s:3s} {median:11.5g} {q1:11.5g} {q3:11.5g} {spread:7.3f} {bound:6.3f}")
            if spread > bound:
                bad.append(f"{name}: set {s} spread {spread:.3f} > bound {bound}")
        change = stats["B"][0] / stats["A"][0] - 1
        worse = change if metric["better"] == "lower" else -change
        print(f"{'':14s} B against A: {change:+.3f}")
        if worse > bound:
            bad.append(f"{name}: set B worse than A by {worse:.3f} > bound {bound}")

    for line in bad:
        print("FAIL " + line)
    print("steady" if not bad else "not steady")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
