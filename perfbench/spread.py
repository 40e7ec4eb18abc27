#!/usr/bin/env python3
"""Runs one workload over several seeds and reports each end-to-end
metric's median and spread (interquartile range over median), the
steadiness figure `BENCHMARK.json`'s bounds are set against.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--trace 0]

Run from the root of a checkout; `run_seconds` and the bounds are read
from `BENCHMARK.json`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", default="0", choices=["0", "1"])
    a = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    for seed in seeds(a.seeds):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", a.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
             "--trace", a.trace],
            capture_output=True, text=True, cwd=ROOT)
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            print(f"seed {seed}: exit {out.returncode}")
            return 1
        result = json.loads(out.stdout.splitlines()[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

    print(f"{'metric':<36} {'median':>12} {'spread':>8} {'bound':>6}")
    for name, v in values.items():
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None or name == "setup_s" or spread < bound / 3 else "  <-- above bound/3"
        print(f"{name:<36} {med:>12.5g} {spread:>8.3f} {bound if bound is not None else '':>6}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
