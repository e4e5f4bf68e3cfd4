#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics against their bounds.

Usage (from the repository root):
  python3 fleetbench/spread.py --workload serve-lowlat --seeds 1-10

Runs fleetbench/run.py once per seed (--trace 0, run_seconds from
BENCHMARK.json) and prints, per metric, the median and the interquartile
distance as a share of the median next to the metric's bound. Exits
non-zero when a spread other than setup_s reaches its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import metrics as m

ROOT = Path(__file__).resolve().parent.parent


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {e["name"]: e["bound"] for e in bench["end_to_end"]}

    values = {name: [] for name in bounds}
    for seed in seeds(args.seeds):
        done = subprocess.run(
            [sys.executable, str(ROOT / "fleetbench" / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, check=False)
        if done.returncode != 0:
            sys.exit(f"seed {seed}: run.py exited with {done.returncode}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
            flush=True)

    over = False
    for name, vals in values.items():
        spread = m.iqr_share(vals)
        mark = ""
        if spread >= bounds[name] and name != "setup_s":
            mark, over = "  OVER BOUND", True
        print(f"{name:20s} median {statistics.median(vals):12.6g}  "
              f"iqr/median {spread:7.4f}  bound {bounds[name]}{mark}")
    sys.exit(1 if over else 0)


if __name__ == "__main__":
    main()
