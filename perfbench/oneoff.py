#!/usr/bin/env python3
"""One-off figures behind the ROADMAP headline, outside the timed workloads.

    python3 perfbench/oneoff.py

Prints, once each: exact ``date_tree`` (Yule, with pendant edges) on a
128-leaf random binary tree, checked against the reference; and
``rank_probabilities_float`` on the deepest vertex of balanced trees with
K = 1023 and K = 2047 interior vertices, with whether the result is finite.
The trees come from ``random.Random(SEED)``.
"""

from __future__ import annotations

import math
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import reference as ref  # noqa: E402
import rankdate.combinat as combinat  # noqa: E402
import rankdate.ranks as ranks  # noqa: E402
import rankdate.timing as timing  # noqa: E402
from rankdate.tree import parse_newick  # noqa: E402
from workloads import balanced_tree, yule_tree  # noqa: E402

SEED = 1


def main() -> None:
    rng = random.Random(SEED)

    reftree = yule_tree(rng, 128)
    tree = parse_newick(reftree.newick())
    started = time.perf_counter()
    report = timing.date_tree(tree, timing.TimingModel.YULE, include_pendant=True)
    elapsed = time.perf_counter() - started
    interior, pendants, _ = ref.date_binary(reftree, "yule", True)
    same = report.interior == interior and report.pendant == pendants
    print(f"date_tree, 128-leaf random tree, yule + pendant: {elapsed:.2f} s, "
          f"matches reference: {same}")

    for leaves in (1024, 2048):
        reftree = balanced_tree(rng, leaves)
        tree = parse_newick(reftree.newick())
        deepest = max(reftree.interior(), key=lambda v: reftree.depth[v])
        started = time.perf_counter()
        combinat.binomial_table_for(tree, exact=False)
        table_s = time.perf_counter() - started
        started = time.perf_counter()
        values = ranks.rank_probabilities_float(tree, deepest)
        law_s = time.perf_counter() - started
        finite = all(math.isfinite(p) for p in values)
        print(f"rank_probabilities_float, balanced K={tree.interior_count}: "
              f"float table {table_s:.2f} s, law {law_s:.2f} s, finite: {finite}, "
              f"sum {math.fsum(values)!r}")


if __name__ == "__main__":
    main()
