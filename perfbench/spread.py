#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads sample cli-date --seeds 1 2 3 4 5

Runs the command from BENCHMARK.json once per (workload, seed), one at a
time, appends every result line to perfbench/results/<workload>.jsonl and
prints, per end-to-end metric, the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the spread
(q3 - q1) / median next to the metric's bound, and the share of failed calls.
A spread at or above a third of its bound is flagged, and the exit status
is then 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    RESULTS.mkdir(exist_ok=True)
    status = 0
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            command = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                         "--seconds", str(spec["run_seconds"]),
                                         "--trace", "0"]
            done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            line = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else "{}"
            with open(RESULTS / f"{workload}.jsonl", "a") as out:
                out.write(json.dumps({"seed": seed, "exit": done.returncode,
                                      "result": json.loads(line)}) + "\n")
            runs.append(json.loads(line))
            print(f"{workload} seed {seed}: exit {done.returncode}", file=sys.stderr, flush=True)
        shares = {r["failed"] / r["attempted"] for r in runs if r}
        print(f"{workload}: correct={all(r.get('correct') for r in runs)} failed shares={sorted(shares)}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = median
            spread = (q3 - q1) / median if median else float("inf")
            bound = bounds[name]
            flag = "" if spread < bound / 3 else "  <-- above bound/3"
            status |= bool(flag)
            print(f"  {name:24s} median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {spread:.3f}  bound {bound}{flag}")
    return status


if __name__ == "__main__":
    sys.exit(main())
