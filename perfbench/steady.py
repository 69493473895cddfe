#!/usr/bin/env python3
"""Steadiness check: two sets of runs of every workload, compared against
the bounds in BENCHMARK.json.

    python3 perfbench/steady.py [--out DIR]

Run from the root of a checkout. Each set runs every workload of
BENCHMARK.json ten times for its run_seconds, each run with its own seed
(set 1 uses seeds 1-10, set 2 seeds 11-20). For every end-to-end metric
the script prints the median and quartiles of each set and its spread
(interquartile distance over the median), and says whether

  * each spread is within the metric's bound;
  * the second set's median is no worse than the first's by more than
    the bound;
  * the share of failed operations is the same in both sets.

It exits 0 when every workload agrees, 1 otherwise. The raw results are
written as JSON lines under --out (default .bench_out/steady).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


RUNS = 10


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default=os.path.join(".bench_out", "steady"))
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)
    seconds = spec["run_seconds"]
    metrics = spec["end_to_end"]
    ok_all = True
    for wl in (w["name"] for w in spec["workloads"]):
        sets = []
        for s in range(2):
            runs = []
            for r in range(RUNS):
                seed = 1 + s * RUNS + r
                res = run_once(wl, seed, seconds)
                runs.append(res)
                with open(os.path.join(args.out, f"{wl}.jsonl"), "a") as f:
                    f.write(json.dumps({"set": s + 1, "seed": seed, "result": res}) + "\n")
                print(f"{wl} set {s + 1} seed {seed}: correct={res['correct']} "
                      f"attempted={res['attempted']} failed={res['failed']}", file=sys.stderr)
            sets.append(runs)
        print(f"\n== {wl} ({RUNS} runs per set, {seconds} s each)")
        print(f"{'metric':<22} {'unit':<8} {'bound':>6} | {'set1 med':>11} {'q1':>11} {'q3':>11} {'spread':>7}"
              f" | {'set2 med':>11} {'spread':>7} {'drift':>7}  verdict")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            s1 = summary([r["metrics"][name]["value"] for r in sets[0]])
            s2 = summary([r["metrics"][name]["value"] for r in sets[1]])
            worse = (s2[0] - s1[0]) / s1[0] if m["better"] == "lower" else (s1[0] - s2[0]) / s1[0]
            spread_ok = s1[3] <= bound and s2[3] <= bound
            ok = spread_ok and worse <= bound
            ok_all &= ok
            print(f"{name:<22} {m['unit']:<8} {bound:>6.3f} | {s1[0]:>11.4g} {s1[1]:>11.4g} {s1[2]:>11.4g}"
                  f" {s1[3]:>7.3f} | {s2[0]:>11.4g} {s2[3]:>7.3f} {worse:>+7.3f}  {'ok' if ok else 'DISAGREE'}")
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs) for runs in sets]
        correct = all(r["correct"] for runs in sets for r in runs)
        same = shares[0] == shares[1]
        ok_all &= same and correct
        print(f"failed share: set1 {shares[0]:.6g}, set2 {shares[1]:.6g} ({'same' if same else 'DIFFERENT'});"
              f" all runs correct: {correct}")
    print("\nverdict:", "steady" if ok_all else "NOT steady")
    return 0 if ok_all else 1


if __name__ == "__main__":
    sys.exit(main())
