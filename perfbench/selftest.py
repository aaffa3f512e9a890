#!/usr/bin/env python3
"""Check the benchmark's reference against rankdate's brute-force oracle.

For every rooted shape with 2 to 8 leaves (interior vertices of any degree
of at least two; 404 shapes) this enumerates every admissible order with
``rankdate.oracle.enumerate_rank_functions`` and requires:

* the reference rank counts to equal the enumerated counts for every
  interior vertex and rank;
* the reference precedence probability of every ordered pair of interior
  vertices, neither above the other, to equal the enumerated share of
  orders that put the first before the second;
* on binary shapes, the reference edge lengths (Yule with pendant edges,
  and the coalescent) to equal the mean over all orders of each edge's
  waiting-time sum;
* on multifurcating shapes, the reference refinement average to equal the
  plain mean over every pair (binary refinement, admissible order of it).
  Under the pure-birth model every ranked labelled tree is equally likely,
  so this unweighted mean is the weighted refinement average; the
  refinements themselves must be distinct and (2d - 3)!! per vertex.

A wrong checker therefore cannot pass the program.  Run from the root of
the repository:

    python3 perfbench/selftest.py

It takes a few minutes at 8 leaves, most of them on the star-like shapes.
"""

from __future__ import annotations

import math
import sys
import time
from fractions import Fraction
from itertools import combinations_with_replacement, product
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import reference as ref  # noqa: E402
from rankdate import parse_newick  # noqa: E402
from rankdate.oracle import enumerate_rank_functions  # noqa: E402

SHAPE_COUNTS = {2: 1, 3: 2, 4: 5, 5: 12, 6: 33, 7: 90, 8: 261}
MAX_LEAVES = max(SHAPE_COUNTS)


def _partitions(n, cap=None):
    cap = n if cap is None else cap
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def shapes(n, _memo={1: ((),)}):
    """Canonical rooted shapes with n leaves: a leaf is (), an interior
    vertex the sorted tuple of its children's shapes."""
    if n not in _memo:
        found = set()
        for parts in _partitions(n):
            if len(parts) < 2:
                continue
            pools = [
                list(combinations_with_replacement(shapes(size), parts.count(size)))
                for size in sorted(set(parts))
            ]
            for pick in product(*pools):
                found.add(tuple(sorted(c for group in pick for c in group)))
        _memo[n] = tuple(sorted(found))
    return _memo[n]


def to_tree(shape) -> ref.RefTree:
    children, labels = [], []
    leaves = 0
    stack = [(shape, None)]
    while stack:
        node, parent = stack.pop()
        v = len(children)
        children.append([])
        if node:
            labels.append(None)
        else:
            leaves += 1
            labels.append(f"t{leaves}")
        if parent is not None:
            children[parent].append(v)
        stack.extend((c, v) for c in reversed(node))
    return ref.RefTree(children, labels)


def tally(tree: ref.RefTree, pairs: bool = False):
    """Enumerated order counts by vertex and rank, and the order count; with
    ``pairs`` also the count of orders putting u before w, keyed (u, w)."""
    program_tree = parse_newick(tree.newick())
    counts = {v: [0] * (tree.interior_count + 1) for v in tree.interior()}
    before = {}
    orders = 0
    for rf in enumerate_rank_functions(program_tree, limit=tree.interior_count):
        orders += 1
        for rank, v in enumerate(rf.order, start=1):
            counts[v][rank] += 1
            if pairs:
                for w in rf.order[rank:]:
                    before[(v, w)] = before.get((v, w), 0) + 1
    return (counts, orders, before) if pairs else (counts, orders)


def check_precedence(tree: ref.RefTree, before, orders) -> list:
    problems = []
    interior = tree.interior()
    for u in interior:
        for w in interior:
            if u == w or u in tree.path_from_root(w) or w in tree.path_from_root(u):
                continue
            if ref.precedence(tree, u, w) != Fraction(before.get((u, w), 0), orders):
                problems.append(f"precedence of {u} before {w}")
    return problems


def brute_mean_g(counts, orders, g):
    return {
        v: Fraction(sum(n * g[t] for t, n in enumerate(row)), orders)
        for v, row in counts.items()
    }


def check_shape(shape) -> list:
    tree = to_tree(shape)
    problems = []
    counts, orders, before = tally(tree, pairs=True)
    laws, total = ref.rank_counts(tree)
    if total != orders or laws != counts:
        problems.append("rank counts differ from enumeration")
    problems += check_precedence(tree, before, orders)
    if tree.is_binary():
        k = tree.interior_count
        for model, pendant in (("yule", True), ("coalescent", False)):
            g = ref.gap_prefix(k, model)
            mean_g = brute_mean_g(counts, orders, g)
            interior, pendants, depths = ref.date_binary(tree, model, pendant)
            for (p, c), value in interior.items():
                if value != mean_g[c] - mean_g[p]:
                    problems.append(f"{model} edge {p}->{c}")
            for (p, c), value in pendants.items():
                if value != g[k] - mean_g[p]:
                    problems.append(f"pendant edge {p}->{c}")
            if pendant and set(depths.values()) != {g[k]}:
                problems.append("leaf depths differ")
        return problems

    expected = math.prod(
        math.prod(range(2 * len(kids) - 3, 0, -2))
        for kids in tree.children
        if len(kids) > 2
    )
    seen = set()
    sums = {"yule": {}, "coalescent": {}}
    pairs = 0
    for refined, image in ref.refinements(tree):
        seen.add(canonical(refined))
        r_counts, r_orders = tally(refined)
        pairs += r_orders
        for model in sums:
            g = ref.gap_prefix(refined.interior_count, model)
            for c in tree.interior():
                if c:
                    p = tree.parent[c]
                    top, bottom = image[p], image[c]
                    length = sum(n * g[t] for t, n in enumerate(r_counts[bottom])) - sum(
                        n * g[t] for t, n in enumerate(r_counts[top])
                    )
                    sums[model][(p, c)] = sums[model].get((p, c), 0) + length
    if len(seen) != expected:
        problems.append(f"{len(seen)} distinct refinements, expected {expected}")
    for model, per_edge in sums.items():
        averaged = ref.refinement_average(tree, model)
        brute = {key: Fraction(value) / pairs for key, value in per_edge.items()}
        if averaged != brute:
            problems.append(f"{model} refinement average differs")
    return problems


def canonical(tree: ref.RefTree):
    """A labelled tree as nested frozensets of leaf labels."""
    out = {}
    for v in range(len(tree.children) - 1, -1, -1):
        kids = tree.children[v]
        out[v] = frozenset(out[c] for c in kids) if kids else tree.labels[v]
    return out[0]


def main() -> int:
    failures = 0
    checked = 0
    started = time.perf_counter()
    for n in range(2, MAX_LEAVES + 1):
        catalog = shapes(n)
        if len(catalog) != SHAPE_COUNTS[n]:
            print(f"shape enumeration gave {len(catalog)} shapes on {n} leaves")
            return 1
        for shape in catalog:
            try:
                problems = check_shape(shape)
            except ArithmeticError as exc:
                problems = [str(exc)]
            checked += 1
            if problems:
                failures += 1
                print(f"FAIL {to_tree(shape).newick()}: {'; '.join(problems[:3])}")
        print(f"{n} leaves: {len(catalog)} shapes checked "
              f"({time.perf_counter() - started:.1f} s so far)", flush=True)
    print(f"selftest: {checked} shapes, {failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
