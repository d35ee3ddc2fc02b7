#!/usr/bin/env python3
"""Repeat every workload and report how steady each end-to-end metric is.

    python3 perfbench/steadiness.py [--runs N] [--workload NAME ...]

Run from the repository root. Runs `perfbench/run.py` N times (default 10)
per workload, with seeds 1..N, for BENCHMARK.json's `run_seconds`. For each
end-to-end metric it prints the median, the first and third quartiles
(Python's `statistics.quantiles(values, n=4)`), and the spread
(q3 - q1) / median against the metric's bound: "steady" when the spread is
under a third of the bound, "in bound" when under the bound, "WIDE"
otherwise. It also prints each workload's share of failed operations, which
must not change between runs. Exits non-zero when a run fails, reports
incorrect output, or a spread exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit code {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    bench = json.load(open(os.path.join(HERE, "..", "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in bench["workloads"]])
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    ok = True
    for wl in workloads:
        results = []
        for seed in range(1, args.runs + 1):
            r = run_once(wl, seed, bench["run_seconds"])
            results.append(r)
            print(f"{wl} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()), flush=True)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        correct = all(r["correct"] for r in results)
        ok &= correct and len(shares) == 1
        print(f"\n{wl}: correct in every run: {correct}; failed shares seen: {shares}")
        print(f"{'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>7}")
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, 0, med)
            spread = (q3 - q1) / med if med else float("inf")
            if spread < m["bound"] / 3:
                verdict = "steady"
            elif spread <= m["bound"]:
                verdict = "in bound"
            else:
                verdict = "WIDE"
                ok = False
            print(f"{m['name']:<20} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{100 * spread:>7.2f}% {100 * m['bound']:>6.1f}% {verdict}")
        print(flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
