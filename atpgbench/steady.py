#!/usr/bin/env python3
"""Steadiness check: run each workload N times and report the spread.

Usage (from the repository root)::

    python3 atpgbench/steady.py --runs 10 [--workload atpg_none ...]

Each run is the benchmark command of ``BENCHMARK.json`` with its own
``--seed`` (1..N) and ``--trace 0``.  For every end-to-end metric the
script prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``), the spread ``(q3 - q1) /
median`` and that spread as a share of the metric's bound; and, per
workload, the share of failed requests, which must be the same in every
run.  Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    status = 0
    for workload in args.workload or names:
        values = {name: [] for name in bounds}
        shares = set()
        for run in range(args.runs):
            seed = args.first_seed + run
            command = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            done = subprocess.run(command, cwd=ROOT, capture_output=True,
                                  text=True, timeout=600)
            if done.returncode != 0:
                print(f"{workload} seed {seed}: exit {done.returncode}\n"
                      f"{done.stderr}", file=sys.stderr)
                status = 1
                continue
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            raw = [line.split()[4] for line in lines
                   if line.startswith("raw wall medians: corpus")]
            shares.add((result["failed"], result["attempted"],
                        result["correct"]))
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{name}={values[name][-1]:.4f}" for name in bounds)
                + f" (raw corpus {raw[0] if raw else '?'} s)", flush=True)
        print(f"== {workload}: failed/attempted/correct per run: "
              f"{sorted(shares)}")
        for name, series in values.items():
            if len(series) < 2:
                continue
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else 0.0
            print(f"   {name:16s} median {median:10.4f}  q1 {q1:10.4f}  "
                  f"q3 {q3:10.4f}  spread {spread:.4f}  "
                  f"= {spread / bounds[name]:.2f} x bound "
                  f"{bounds[name]}")
    return status


if __name__ == "__main__":
    sys.exit(main())
