#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workloads evaluate-hot,map-and-run --seeds 1-10

Runs perfbench/run.py once per workload and seed, each run as long as
BENCHMARK.json's run_seconds, and prints, for every end-to-end metric,
the median of the runs and the distance between the first and third
quartile (statistics.quantiles, n=4) as a share of the median. The last
line is the whole table as JSON.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args()
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    secs = bench["run_seconds"]
    table = {}
    for wl in args.workloads.split(","):
        values = {}
        for seed in seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl,
                   "--seed", str(seed), "--seconds", str(secs), "--trace", "0"]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            lines = out.stdout.strip().splitlines()
            res = json.loads(lines[-1]) if lines else {}
            if out.returncode != 0 or not res.get("correct"):
                sys.stderr.write("\n".join(out.stderr.splitlines()[-20:]) + "\n")
                sys.exit("%s seed %d failed (exit %d)" % (wl, seed, out.returncode))
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print("%s seed %d: %s" % (wl, seed, {k: round(v["value"], 4) for k, v in res["metrics"].items()}),
                  flush=True)
        table[wl] = {}
        for m in bench["end_to_end"]:
            vs = values[m["name"]]
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / statistics.median(vs)
            table[wl][m["name"]] = {"median": statistics.median(vs), "spread": spread, "bound": m["bound"]}
            print("%-14s %-10s median %12.4f  spread %6.3f  bound %.2f" %
                  (wl, m["name"], statistics.median(vs), spread, m["bound"]), flush=True)
    print(json.dumps(table))


if __name__ == "__main__":
    main()
