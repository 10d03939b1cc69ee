#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload sweep --seeds 1-10 [--trace 0]

Runs the command in BENCHMARK.json once per seed, from the repository
root, and prints for every metric the median of the per-run values and
the distance between their first and third quartile as a share of the
median (`statistics.quantiles(values, n=4)`), next to the metric's bound.
Use it to check that the benchmark is steady before relying on a
comparison, and to compare two commits run with identical settings.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    units = {}
    for seed in args.seeds:
        cmd = bench["command"] + [
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]),
            "--trace", args.trace,
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        result = json.loads(lines[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    print(f"\n{'metric':<30} {'median':>14} {'iqr/median':>11} {'bound':>6}")
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
        share = (q3 - q1) / abs(med) if med else 0.0
        bound = bounds.get(name)
        flag = "" if bound is None else ("ok" if share < bound / 3 else "WIDE")
        print(f"{name:<30} {med:>14.6g} {share:>11.4f} {bound or '':>6} {units[name]} {flag}")
        print(f"    {' '.join(f'{v:.4g}' for v in vs)}")


if __name__ == "__main__":
    main()
