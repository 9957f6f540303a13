#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 e2ebench/spread.py --workloads tablev_discovery,fleet_grid \
        --seeds 1-10 [--seconds 30] [--out spread.json]

Runs e2ebench/run.py once per workload and seed (--trace 0) and prints,
per workload and metric, the median and the quartile spread
(Q3 - Q1) / median from statistics.quantiles(values, n=4), next to the
metric's bound from BENCHMARK.json. A spread must stay within its
bound (setup_s excepted) for two sets of runs to be comparable.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out")
    args = ap.parse_args()

    report = {}
    for workload in args.workloads.split(","):
        values = {}
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.exit("%s seed %d failed (exit %d)"
                         % (workload, seed, proc.returncode))
            result = json.loads(lines[-1])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        rows = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med if med else float("inf")
            rows[name] = {"median": med, "spread": spread, "values": vals}
            print("%-22s %-24s median %-12.6g spread %.4f bound %s"
                  % (workload, name, med, spread, bounds.get(name)))
        report[workload] = rows
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)


if __name__ == "__main__":
    main()
