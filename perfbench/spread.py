#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workload metro-day --seeds 1-10 [--seconds S] [--trace 0]

Run from the repository root. For every metric it prints the median of
the per-seed values, and the distance between their first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of that
median: the run-to-run spread each end-to-end bound in BENCHMARK.json
must stay clear of. Exits non-zero when any run fails.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench.get("end_to_end", [])}
    seconds = args.seconds or str(bench["run_seconds"])
    values = {}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", seconds, "--trace", args.trace]
        run = subprocess.run(cmd, capture_output=True, text=True)
        lines = run.stdout.strip().splitlines()
        if run.returncode != 0 or not lines:
            sys.stdout.write(run.stdout + run.stderr)
            sys.exit(f"seed {seed}: exit {run.returncode}")
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: {lines[-1]}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)
    print(f"\n{'metric':<34} {'median':>14} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) < 2 or not med:
            spread = float("nan")
        else:
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med
        bound = bounds.get(name)
        flag = "" if bound is None or spread != spread else ("  ok" if spread < bound / 3 else "  WIDE" if spread >= bound else "  >1/3")
        print(f"{name:<34} {med:>14.5g} {spread:>8.3f} {bound if bound is not None else '':>6}{flag}")


if __name__ == "__main__":
    main()
