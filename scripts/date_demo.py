#!/usr/bin/env python3
"""Walk one tree through the whole toolkit.

Reads a Newick tree (file argument, or a built-in five-leaf example), then
prints the admissible-order count, each interior vertex's rank distribution,
the pairwise precedence matrix, expected edge lengths under both timing
models, and a few uniformly sampled orders.

Usage:
    python3 scripts/date_demo.py
    python3 scripts/date_demo.py my_tree.nwk --samples 5
"""

import argparse
import sys

from rankdate import (
    TimingModel,
    compare,
    count_rank_functions,
    date_tree,
    decimal_string,
    parse_newick,
    polytomy_edge_lengths,
    rank_moments,
    rank_probabilities,
    sample_rank_functions,
    write_newick,
)

EXAMPLE = "((a,b),((c,d),e));"


def show(value) -> str:
    return f"{value} ({decimal_string(value, 6)})"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", nargs="?", help="Newick file (default: built-in example)")
    parser.add_argument("--samples", type=int, default=3, help="orders to draw (default 3)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    if args.tree:
        text = open(args.tree, encoding="utf-8").read()
    else:
        text = EXAMPLE
        print(f"using the built-in example {EXAMPLE}")
    tree = parse_newick(text)
    interior = tree.interior_vertices()

    print(f"\n{tree.leaf_count} leaves, {len(interior)} interior vertices, "
          f"{'binary' if tree.is_binary() else 'multifurcating'}")
    print(f"admissible orders: {count_rank_functions(tree)}")

    print("\nrank distributions")
    for v in interior:
        dist = rank_probabilities(tree, v)
        summary = rank_moments(dist)
        parts = ", ".join(f"{r}: {p}" for r, p in dist.support())
        print(f"  {tree.name(v):>6}  {{{parts}}}  mean {show(summary.mean)}")

    if len(interior) > 1:
        print("\nprecedence matrix  P[row splits before column]")
        names = [tree.name(v) for v in interior]
        print("        " + "".join(f"{name:>8}" for name in names))
        for u in interior:
            row = []
            for v in interior:
                row.append("-" if u == v else decimal_string(compare(tree, u, v), 4))
            print(f"{tree.name(u):>8}" + "".join(f"{cell:>8}" for cell in row))

    for model in (TimingModel.YULE, TimingModel.COALESCENT):
        print(f"\nexpected interior edge lengths, {model.value} timing")
        if tree.is_binary():
            report = date_tree(tree, model, include_pendant=model is TimingModel.YULE)
            for (p, c), value in report.interior.items():
                print(f"  {tree.name(p)} -> {tree.name(c)}: {show(value)}")
            for (p, c), value in report.pendant.items():
                print(f"  {tree.name(p)} -> {tree.name(c)} (pendant): {show(value)}")
            if report.leaf_depths:
                depth = next(iter(report.leaf_depths.values()))
                print(f"  every leaf sits at depth {show(depth)}")
            print(f"  {write_newick(tree, report, allow_partial=not report.pendant)}")
        else:
            for (p, c), value in polytomy_edge_lengths(tree, model).items():
                print(f"  {tree.name(p)} -> {tree.name(c)}: {show(value)} "
                      f"(averaged over binary refinements)")

    print(f"\n{args.samples} uniform orders (seed {args.seed})")
    for rf in sample_rank_functions(tree, args.samples, args.seed):
        print("  " + " < ".join(tree.name(v) for v in rf.order))


if __name__ == "__main__":
    sys.exit(main())
