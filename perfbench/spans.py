"""Spans and counters around rankdate's layer boundaries, for the traced run.

The program itself carries no instrumentation, so the traced run replaces
module attributes with timing wrappers: each wrapper records a span for one
call into a layer, and spans nest, so a layer's self time is its duration
minus the time of the spans it caused.  Spans are folded into per-name
totals (calls, seconds, self seconds) as they end rather than kept one by
one, which keeps memory flat over thousands of calls.  The untraced run
installs nothing.
"""

from __future__ import annotations

import time
import tracemalloc
from collections import Counter, defaultdict

TRACE_PREFIX = "perfbench-trace "


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.counts = Counter()
        self.maxima = Counter()
        self._stack = []  # child seconds of each open span
        self.table_sizes = set()

    def reset(self) -> None:
        self.calls.clear()
        self.seconds.clear()
        self.self_seconds.clear()
        self.counts.clear()
        self.maxima.clear()

    def enter(self) -> float:
        self._stack.append(0.0)
        return time.perf_counter()

    def leave(self, name: str, started: float) -> None:
        elapsed = time.perf_counter() - started
        inner = self._stack.pop()
        if self._stack:
            self._stack[-1] += elapsed
        self.calls[name] += 1
        self.seconds[name] += elapsed
        self.self_seconds[name] += elapsed - inner

    def wrap(self, name: str, function, after=None):
        def traced(*args, **kwargs):
            started = self.enter()
            try:
                result = function(*args, **kwargs)
            finally:
                self.leave(name, started)
            if after is not None:
                after(result, *args)
            return result

        traced.__wrapped__ = function
        return traced

    def patch(self, modules, attr: str, name: str, after=None) -> None:
        """Wrap ``attr`` in each module that calls it through that name."""
        for module in modules:
            setattr(module, attr, self.wrap(name, getattr(module, attr), after))

    def note_bits(self, values) -> None:
        bits = 0
        for value in values:
            bits = max(bits, value.numerator.bit_length())
        if bits > self.maxima["ranks.max_numerator_bits"]:
            self.maxima["ranks.max_numerator_bits"] = bits

    def merge(self, snapshot: dict) -> None:
        """Add the totals of another process's ``snapshot``."""
        for name, value in snapshot["calls"].items():
            self.calls[name] += value
        for name, value in snapshot["seconds"].items():
            self.seconds[name] += value
        for name, value in snapshot["self_seconds"].items():
            self.self_seconds[name] += value
        for name, value in snapshot["counts"].items():
            self.counts[name] += value
        for name, value in snapshot["maxima"].items():
            self.maxima[name] = max(self.maxima[name], value)

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "seconds": dict(self.seconds),
            "self_seconds": dict(self.self_seconds),
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
        }


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary that the workloads and the CLI cross."""
    import rankdate.cli as cli
    import rankdate.combinat as combinat
    import rankdate.oracle as oracle
    import rankdate.ranks as ranks
    import rankdate.timing as timing
    import rankdate.tree as tree

    tracer.patch([tree, cli], "parse_newick", "tree.parse")
    tracer.patch([cli], "write_newick", "tree.write")

    def table_built(_table, size, one=1):
        tracer.table_sizes.add((size, one))

    tracer.patch([combinat], "BinomialTable", "combinat.table", table_built)
    tracer.patch([timing], "yule_topology_prob", "combinat.yule_topology")

    tracer.patch(
        [timing], "joint_rank_prob", "ranks.joint",
        lambda table, *_: tracer.note_bits(table.q.values()),
    )
    tracer.patch([ranks], "prune_below", "ranks.prune")
    tracer.patch(
        [ranks, timing, cli], "rank_probabilities", "ranks.rank_law",
        lambda dist, *_: tracer.note_bits(dist.p),
    )
    tracer.patch([ranks], "rank_probabilities_float", "ranks.float_law")
    tracer.patch(
        [ranks, cli], "compare", "ranks.compare",
        lambda value, *_: tracer.note_bits([value]),
    )

    tracer.patch([timing], "interior_edge_length", "timing.edge")
    tracer.patch([timing, cli], "date_tree", "timing.date")

    def resolved(result, *_):
        tracer.counts["timing.resolutions_built"] += len(result.resolutions)

    tracer.patch([timing], "resolve_polytomies", "timing.resolve", resolved)
    tracer.patch([cli], "polytomy_edge_length", "timing.polytomy_edge")

    tracer.patch([cli], "decimal_string", "cli.decimal")
    tracer.patch([cli], "run", "cli.run")

    sample = oracle.sample_rank_functions

    def traced_sample(*args, **kwargs):
        draws = sample(*args, **kwargs)
        while True:
            started = tracer.enter()
            try:
                draw = next(draws, None)
            finally:
                tracer.leave("oracle.sample", started)
            if draw is None:
                return
            tracer.counts["oracle.draws"] += 1
            yield draw

    oracle.sample_rank_functions = traced_sample
    tracer.patch([oracle], "sample_yule_times", "oracle.yule_times")

    below = oracle.SplitMix64.below

    def counted_below(self, n):
        tracer.counts["oracle.rng_calls"] += 1
        return below(self, n)

    oracle.SplitMix64.below = counted_below


def table_peak_mb(sizes) -> float:
    """Largest tracemalloc peak over fresh builds of the given tables."""
    from rankdate.combinat import BinomialTable

    build = getattr(BinomialTable, "__wrapped__", BinomialTable)
    peak = 0
    for size, one in sorted(sizes, key=lambda item: item[0]):
        tracemalloc.start()
        try:
            table = build(size, one)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
            del table
        finally:
            tracemalloc.stop()
    return peak / 2**20
