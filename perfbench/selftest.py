#!/usr/bin/env python3
"""Tiny-scale self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout. Runs every workload of BENCHMARK.json for
two seconds, untraced and traced, and checks that

  * every run ends, is correct and has no failed operation;
  * the untraced run prints exactly the end-to-end metrics of
    BENCHMARK.json, with their units, and none of them reads 0;
  * the traced run prints exactly the per-layer metrics, with their units;
  * a run refuses to start while HTVM_FAULTS or HTVM_TOPOLOGY is set.

Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = [sys.executable, os.path.join(HERE, "run.py")]


def run(workload, trace, env=None):
    cmd = RUN + ["--workload", workload, "--seed", "1", "--seconds", "2", "--trace", str(trace)]
    return subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env, timeout=600)


def main():
    spec = json.load(open("BENCHMARK.json"))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for wl in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            out = run(wl, trace)
            tag = f"{wl} --trace {trace}"
            if out.returncode != 0:
                problems.append(f"{tag}: exit code {out.returncode}")
                continue
            res = json.loads(out.stdout.strip().splitlines()[-1])
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(res)}")
            if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                problems.append(f"{tag}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                units = sorted(k for k in got if k in expected[trace] and got[k] != expected[trace][k])
                problems.append(f"{tag}: metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, units {units}")
            if trace == 0:
                zero = [k for k, v in res["metrics"].items() if v["value"] == 0]
                if zero:
                    problems.append(f"{tag}: end-to-end metrics read 0: {zero}")
            print(f"{tag}: ok" if not problems else f"{tag}: {len(problems)} problem(s) so far", file=sys.stderr)
    for var in ("HTVM_FAULTS", "HTVM_TOPOLOGY"):
        out = run(spec["workloads"][0]["name"], 0, env=dict(os.environ, **{var: "1"}))
        if out.returncode == 0 or out.stdout.strip():
            problems.append(f"run with {var} set did not refuse (exit {out.returncode})")
    for p in problems:
        print("selftest:", p)
    print("selftest:", "passed" if not problems else "FAILED")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
