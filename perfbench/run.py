#!/usr/bin/env python3
"""Benchmark for rankdate: four workloads, checked outputs, one JSON line.

Run from the root of a checkout (nothing to build; the program is imported
from ``src/``):

    python3 perfbench/run.py --workload date-binary --seed 1 --seconds 24 --trace 0

``--workload`` is date-binary, rank-queries, sample or cli-date, or ``all``
to run the four one after another, each in a fresh process.  The last line
of stdout is a JSON object with ``correct``, ``attempted`` (program calls),
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones: ``ops_per_s``, ``op_p50_s``, ``setup_s`` and
``peak_rss_mb``.  With ``--trace 1`` the run is split in two fresh
processes, one untraced and one with every layer wrapped, each for half of
``--seconds``; the metrics are then the per-layer ones (per operation), the
untraced half's wall-clock loop figures and probe time, and ``overhead.*``,
the traced half's change in each end-to-end metric in percent.

Each workload is a closed loop with one caller and one operation in flight.
An operation is a fixed cycle of program calls; ``--seconds`` bounds the
wall time spent inside them.  Times are calibrated: a fixed pure-Python
probe loop runs right before every call and every set-up, and the call's
wall time is scaled by PROBE_REFERENCE_S / (that probe's time).  On a shared
machine whose speed drifts by tens of percent over seconds, wall times
follow the machine while the calibrated times repeat within a few percent.
Set-up (parsing the workload's trees and filling rankdate's per-tree
binomial caches) is repeated in two windows, one before the timed loop and
one after it, and the median of all set-ups is reported: the host's speed
drifts over seconds, and two windows half a minute apart average over more
of it than one.  Checks run outside every timed region.  See README.md in this directory for the workloads, the
layer map and reference figures.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
NAMES = ("date-binary", "rank-queries", "sample", "cli-date")
UNITS = {"ops_per_s": "1/s", "op_p50_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
         "loop.wall_ops_per_s": "1/s", "loop.wall_op_p50_s": "s", "host.probe_s": "s"}
END_TO_END = ("ops_per_s", "op_p50_s", "setup_s", "peak_rss_mb")
# Each set-up window lasts at least MIN_SETUPS set-ups and SETUP_WINDOW_S of
# wall time, probes included.
MIN_SETUPS, SETUP_WINDOW_S = 5, 1.5
# The probe: PROBE_ITERATIONS turns of a small-integer loop.  It takes about
# PROBE_REFERENCE_S on a quiet 2.1 GHz Xeon under CPython 3.11, so calibrated
# times read as seconds on that machine.
PROBE_ITERATIONS = 20_000
PROBE_REFERENCE_S = 0.0015


def probe() -> float:
    started = time.perf_counter()
    total = 0
    for k in range(PROBE_ITERATIONS):
        total += k * k
    return time.perf_counter() - started


def load_program():
    """Import rankdate from this checkout's src/, never from elsewhere."""
    if not (SRC / "rankdate" / "__init__.py").is_file():
        sys.exit(f"perfbench: no rankdate sources under {SRC}")
    sys.path[:0] = [str(HERE), str(SRC)]
    import rankdate

    if Path(rankdate.__file__).resolve().parent != SRC / "rankdate":
        sys.exit(f"perfbench: imported rankdate from {rankdate.__file__}, not {SRC}")


def set_up_window(workload, inputs, tracer, setup_times: list, setup_spans: list):
    """One window of set-ups; appends each one's calibrated time (and its
    trace) and returns the last set-up's state."""
    state = None
    window_start = time.perf_counter()
    count = 0
    while count < MIN_SETUPS or time.perf_counter() - window_start < SETUP_WINDOW_S:
        state = None
        gc.collect()
        if tracer is not None:
            tracer.reset()
        scale = PROBE_REFERENCE_S / probe()
        started = time.perf_counter()
        state = workload.setup(inputs)
        setup_times.append((time.perf_counter() - started) * scale)
        if tracer is not None:
            setup_spans.append(tracer.snapshot())
        count += 1
    if tracer is not None:
        tracer.reset()
    return state


def measure(workload, seed: int, seconds: float, tracer=None) -> dict:
    from workloads import CheckError

    workload.tracer = tracer
    inputs = workload.inputs(seed)
    setup_times, setup_spans = [], []  # calibrated
    state = set_up_window(workload, inputs, tracer, setup_times, setup_spans)

    walls, durations, probes = [], [], []  # per operation, per operation, per call
    attempted = failed = 0
    correct = True
    while not walls or sum(walls) < seconds:
        index = len(walls)
        results = []
        wall = calibrated = 0.0
        for call in workload.calls(state, index):
            probes.append(probe())
            started = time.perf_counter()
            try:
                results.append(call())
            except (ValueError, ArithmeticError) as exc:
                results.append(exc)
            elapsed = time.perf_counter() - started
            wall += elapsed
            calibrated += elapsed * PROBE_REFERENCE_S / probes[-1]
            attempted += 1
        walls.append(wall)
        durations.append(calibrated)
        try:
            failed += workload.check(state, index, results)
        except CheckError as exc:
            print(f"perfbench: {workload.name}: {exc}", file=sys.stderr)
            correct = False
            break
    peak = workload.peak_rss_mb()
    layers = None if tracer is None else per_layer(workload, tracer, setup_spans, len(walls))
    if correct:
        try:
            workload.finish(state)
        except CheckError as exc:
            print(f"perfbench: {workload.name}: {exc}", file=sys.stderr)
            correct = False
    state = None  # the second window's set-ups replace the timed loop's state
    set_up_window(workload, inputs, tracer, setup_times, [])
    end_to_end = {
        "ops_per_s": len(durations) / sum(durations),
        "op_p50_s": statistics.median(durations),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak,
        "loop.wall_ops_per_s": len(walls) / sum(walls),
        "loop.wall_op_p50_s": statistics.median(walls),
        "host.probe_s": statistics.median(probes),
    }
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "end_to_end": end_to_end, "layers": layers}


def per_layer(workload, tracer, setup_spans, ops: int) -> dict:
    """Per-operation layer figures from the traced timed loop; the two
    ``setup_`` figures are per set-up."""
    from spans import table_peak_mb
    from workloads import process_start_s

    calls, seconds, own, counts = tracer.calls, tracer.seconds, tracer.self_seconds, tracer.counts

    def setup_mean(name):
        return statistics.fmean(s["seconds"].get(name, 0.0) for s in setup_spans)

    draws = counts["oracle.draws"]
    values = {
        "tree.setup_parse_s": (setup_mean("tree.parse"), "s"),
        "tree.parse_s": (seconds["tree.parse"] / ops, "s"),
        "tree.write_s": (seconds["tree.write"] / ops, "s"),
        "combinat.setup_table_s": (setup_mean("combinat.table"), "s"),
        "combinat.table_builds": (calls["combinat.table"] / ops, "count"),
        "combinat.table_s": (seconds["combinat.table"] / ops, "s"),
        "combinat.table_peak_mb": (table_peak_mb(tracer.table_sizes), "MB"),
        "combinat.yule_topology_s": (seconds["combinat.yule_topology"] / ops, "s"),
        "ranks.joint_calls": (calls["ranks.joint"] / ops, "count"),
        "ranks.joint_s": (seconds["ranks.joint"] / ops, "s"),
        "ranks.prune_s": (seconds["ranks.prune"] / ops, "s"),
        "ranks.rank_law_calls": (calls["ranks.rank_law"] / ops, "count"),
        "ranks.rank_law_s": (seconds["ranks.rank_law"] / ops, "s"),
        "ranks.float_law_s": (seconds["ranks.float_law"] / ops, "s"),
        "ranks.compare_s": (seconds["ranks.compare"] / ops, "s"),
        "ranks.max_numerator_bits": (tracer.maxima["ranks.max_numerator_bits"], "bits"),
        "timing.edge_calls": (calls["timing.edge"] / ops, "count"),
        "timing.edge_s": (seconds["timing.edge"] / ops, "s"),
        "timing.date_self_s": (own["timing.date"] / ops, "s"),
        "timing.resolve_calls": (calls["timing.resolve"] / ops, "count"),
        "timing.resolutions_built": (counts["timing.resolutions_built"] / ops, "count"),
        "timing.resolve_s": (seconds["timing.resolve"] / ops, "s"),
        "timing.polytomy_edge_s": (seconds["timing.polytomy_edge"] / ops, "s"),
        "oracle.draws": (draws / ops, "count"),
        "oracle.sample_s": (seconds["oracle.sample"] / ops, "s"),
        "oracle.rng_calls": (counts["oracle.rng_calls"] / draws if draws else 0, "count"),
        "oracle.yule_times_s": (seconds["oracle.yule_times"] / ops, "s"),
        "cli.run_s": (seconds["cli.run"] / ops, "s"),
        "cli.format_s": (own["cli.run"] / ops, "s"),
        "cli.decimal_calls": (calls["cli.decimal"] / ops, "count"),
        "cli.decimal_s": (seconds["cli.decimal"] / ops, "s"),
        "cli.process_start_s": (process_start_s() if workload.name == "cli-date" else 0, "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def run_child(args, seconds: float, extra=()) -> dict:
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(seconds), *extra]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"perfbench: {' '.join(command)} exited with {done.returncode}")
    return json.loads(lines[-1])


def traced(args) -> dict:
    """An untraced and a traced process, each for half the run."""
    half = args.seconds / 2
    plain = run_child(args, half, ("--phase", "plain"))
    wrapped = run_child(args, half, ("--phase", "traced"))
    metrics = dict(wrapped["metrics"])
    for name in ("loop.wall_ops_per_s", "loop.wall_op_p50_s", "host.probe_s"):
        metrics[name] = plain["end_to_end"][name]
    for name in END_TO_END:  # positive when tracing makes the metric worse
        before = plain["end_to_end"][name]["value"]
        after = wrapped["end_to_end"][name]["value"]
        if name == "ops_per_s":
            before, after = after, before
        metrics[f"overhead.{name}"] = {"value": 100 * (after / before - 1), "unit": "%"}
    return {
        "correct": plain["correct"] and wrapped["correct"],
        "attempted": plain["attempted"] + wrapped["attempted"],
        "failed": plain["failed"] + wrapped["failed"],
        "metrics": metrics,
    }


def with_units(values: dict) -> dict:
    return {name: {"value": value, "unit": UNITS[name]} for name, value in values.items()}


def run_all(args) -> dict:
    results = {}
    for name in NAMES:
        args.workload = name
        results[name] = run_child(args, args.seconds, ("--trace", str(args.trace)))
        print(f"{name}: correct={results[name]['correct']} attempted={results[name]['attempted']}"
              f" failed={results[name]['failed']}")
        for metric, entry in results[name]["metrics"].items():
            print(f"  {metric:28s} {entry['value']:.6g} {entry['unit']}")
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}/{metric}": entry for name, r in results.items()
                    for metric, entry in r["metrics"].items()},
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # the two halves of a traced run
    parser.add_argument("--phase", choices=("plain", "traced"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    load_program()

    if args.workload == "all":
        result = run_all(args)
    elif args.trace and args.phase is None:
        result = traced(args)
    else:
        from workloads import WORKLOADS

        tracer = None
        if args.phase == "traced":
            import spans

            tracer = spans.Tracer()
            spans.install(tracer)
        measured = measure(WORKLOADS[args.workload](), args.seed, args.seconds, tracer)
        result = {key: measured[key] for key in ("correct", "attempted", "failed")}
        figures = with_units(measured["end_to_end"])
        result["metrics"] = {name: figures[name] for name in END_TO_END}
        if args.phase is not None:
            result["metrics"] = measured["layers"] or {}
            result["end_to_end"] = figures
    print(json.dumps(result))


if __name__ == "__main__":
    main()
