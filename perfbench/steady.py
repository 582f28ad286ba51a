#!/usr/bin/env python3
"""Steadiness check: two interleaved sets of runs of one build.

    python3 perfbench/steady.py [--runs 10] [--seconds S]
        [--workloads sweep,diff,serve] [--held-out-seed 9001]

Runs the benchmark command from BENCHMARK.json on every workload, set A
and set B interleaved (A/B/A/B...), each set with seeds 1..runs.  Host
speed drifts by tens of percent over minutes, so back-to-back sets
would confound drift with noise; interleaving spreads it over both.
For each end-to-end metric it prints both sets' medians and quartiles,
each set's spread (quartile distance over median, as
statistics.quantiles(values, n=4) gives the quartiles) and the
difference between the two medians, each against the metric's bound.
Then it runs every workload once more on a held-out seed.  Exits 1 if
any run fails or any spread or median difference exceeds its bound
(setup_s is held to the median difference only).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(bench, workload, seed, seconds):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{' '.join(cmd)}: incorrect result {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--held-out-seed", type=int, default=9001)
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    sets = {(w, s): [] for w in workloads for s in "AB"}
    for i in range(args.runs):
        for label in "AB":
            for w in workloads:
                m = run_once(bench, w, i + 1, args.seconds)
                sets[(w, label)].append(m)
                print(f"run {i + 1} set {label} {w}: " +
                      " ".join(f"{k}={v:.6g}" for k, v in m.items()),
                      flush=True)

    ok = True
    print(f"\n{'workload':8} {'metric':18} {'set':3} {'q1':>11} "
          f"{'median':>11} {'q3':>11} {'spread':>8}  bound")
    for w in workloads:
        for name, bound in bounds.items():
            medians = []
            for label in "AB":
                values = [m[name] for m in sets[(w, label)]]
                q1, q2, q3 = quartiles(values)
                spread = (q3 - q1) / q2 if q2 else 0.0
                medians.append(q2)
                gated = name != "setup_s"
                verdict = "ok" if not gated or spread <= bound else "OVER"
                ok = ok and verdict == "ok"
                print(f"{w:8} {name:18} {label:3} {q1:11.5g} {q2:11.5g} "
                      f"{q3:11.5g} {spread:8.2%}  {bound:.0%} {verdict}"
                      + ("" if gated else " (not gated)"))
            diff = abs(medians[1] - medians[0]) / medians[0]
            verdict = "ok" if diff <= bound else "OVER"
            ok = ok and verdict == "ok"
            print(f"{w:8} {name:18} A-B median difference {diff:8.2%} "
                  f"(bound {bound:.0%}) {verdict}")

    print(f"\nheld-out seed {args.held_out_seed}:")
    for w in workloads:
        m = run_once(bench, w, args.held_out_seed, args.seconds)
        print(f"  {w}: correct; " +
              " ".join(f"{k}={v:.6g}" for k, v in m.items()))
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
