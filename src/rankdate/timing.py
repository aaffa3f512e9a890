"""Expected branch lengths conditioned on tree shape.

Two clock models are supported.  Under the pure-birth ("yule") model with
rate 1, the gap between the k-th and (k+1)-th split is exponential with rate
k + 1; under the coalescent the corresponding gap rate makes the expected gap
1 / ((k+1)k).  Write G(t) for the expected time from the first split to the
t-th.  By linearity of expectation the expected length of an interior edge
p -> c is E[G(rank c)] - E[G(rank p)], so edge lengths need only the marginal
rank law of each vertex, never the joint law of an edge's endpoints: one pass
of the rank kernel in ``ranks`` dates a whole tree.  Pendant edges run from
the parent's split to the last split of the whole tree (the natural
truncation for a tree observed at the moment its final lineage appears) and
are meaningful for the pure-birth model only; their expected length is
E[G(K) - G(rank p)] for K interior vertices.

Trees are dated from their first split: the root's split is time zero and
there is no stem edge.  Multifurcations carry no timing model of their own;
they are averaged over all binary refinements, weighted by each refinement's
pure-birth topology probability.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .combinat import yule_topology_prob
from .ranks import _order_counts
# Nothing here calls these two any more; they stay importable from this module
# because the traced benchmark run (perfbench/spans.py) wraps them by name.
from .ranks import joint_rank_prob, rank_probabilities  # noqa: F401
from .tree import PhyloTree, TreeError, assemble


class TimingModel(enum.Enum):
    YULE = "yule"
    COALESCENT = "coalescent"


class ResolutionLimitError(TreeError):
    """Too many binary refinements; ``count`` holds the exact number."""

    def __init__(self, count: int, limit: int):
        super().__init__(
            f"tree has {count} binary resolutions, more than the limit {limit}; "
            "raise max_resolutions to proceed"
        )
        self.count = count
        self.limit = limit


@dataclass(frozen=True)
class EdgeLengthReport:
    """Expected durations for a binary tree, keyed by (parent, child).

    ``interior`` covers edges ending in an interior vertex.  ``pendant`` and
    ``leaf_depths`` are filled only when pendant lengths were requested
    (pure-birth model); leaf depths measure from the first split and are then
    identical across leaves.
    """

    model: TimingModel
    interior: dict
    pendant: dict
    leaf_depths: dict

    def edge_lengths(self) -> dict:
        merged = dict(self.interior)
        merged.update(self.pendant)
        return merged


@dataclass(frozen=True)
class Resolution:
    """One binary refinement: the tree, its topology weight, and the map from
    source vertex ids to ids in the refined tree."""

    tree: PhyloTree
    weight: Fraction
    vertex_map: dict


@dataclass(frozen=True)
class ResolutionSet:
    source: PhyloTree
    resolutions: tuple

    @property
    def total_weight(self) -> Fraction:
        return sum((r.weight for r in self.resolutions), Fraction(0))


# ---------------------------------------------------------------------------
# waiting-time sums
# ---------------------------------------------------------------------------


def expected_waiting_sum(i: int, j: int, model: TimingModel) -> Fraction:
    """Expected total duration between the splits ranked i and j (i < j)."""
    if not (isinstance(i, int) and isinstance(j, int)) or i < 1 or i >= j:
        raise TreeError(f"need ranks 1 <= i < j, got i={i!r}, j={j!r}")
    if model is TimingModel.YULE:
        return sum((Fraction(1, i + k) for k in range(1, j - i + 1)), Fraction(0))
    if model is TimingModel.COALESCENT:
        return sum(
            (Fraction(1, (i + k) * (i + k - 1)) for k in range(1, j - i + 1)),
            Fraction(0),
        )
    raise TreeError(f"unknown timing model {model!r}")


def _gap_numerators(limit: int, model: TimingModel) -> tuple[list, int]:
    """G(t) for t = 0..limit over one common denominator: returns
    ``(numerators, denominator)`` with G(t) = numerators[t] / denominator and
    G(j) - G(i) = expected_waiting_sum(i, j, model).

    The denominator lcm(1..limit) is a multiple of every gap's denominator,
    t under Yule and t(t - 1) under the coalescent (coprime factors, both at
    most ``limit``), so every numerator is an exact integer.
    """
    denominator = math.lcm(*range(1, limit + 1))
    numerators = [0] * (limit + 1)
    for t in range(2, limit + 1):
        gap = t if model is TimingModel.YULE else t * (t - 1)
        numerators[t] = numerators[t - 1] + denominator // gap
    return numerators, denominator


def _expected_gaps(tree: PhyloTree, gap: list, targets=None) -> tuple[dict, int]:
    """Numerators of E[G(rank v)] for the interior vertices (or those on the
    root paths to ``targets``) and the order count: E[G(rank v)] is
    ``sums[v] / (total * denominator)`` for gap numerators from
    _gap_numerators."""
    total, laws = _order_counts(tree, targets)
    return {v: sum(map(mul, counts, gap)) for v, counts in laws}, total


def interior_edge_length(tree: PhyloTree, u: int, v: int, model: TimingModel) -> Fraction:
    """Exact expected duration of the edge from u down to its child v."""
    _require_binary(tree)
    tree.check_vertex(u)
    tree.check_vertex(v)
    if tree.parent[v] != u:
        raise TreeError(f"{tree.name(u)} is not the parent of {tree.name(v)}")
    if tree.is_leaf(v):
        raise TreeError(
            f"{tree.name(v)} is a leaf; use pendant_edge_length for leaf edges"
        )
    gap, denominator = _gap_numerators(tree.interior_count, model)
    sums, total = _expected_gaps(tree, gap, targets=(v,))
    return Fraction(sums[v] - sums[u], total * denominator)


def pendant_edge_length(tree: PhyloTree, v: int) -> Fraction:
    """Expected duration of the pendant edges below interior vertex v, under
    the pure-birth model, truncated at the tree's last split."""
    _require_binary(tree)
    tree.check_vertex(v)
    if tree.is_leaf(v):
        raise TreeError(f"{tree.name(v)} is a leaf; pass its parent instead")
    if not any(tree.is_leaf(c) for c in tree.children[v]):
        raise TreeError(f"{tree.name(v)} has no leaf child")
    gap, denominator = _gap_numerators(tree.interior_count, TimingModel.YULE)
    sums, total = _expected_gaps(tree, gap, targets=(v,))
    return Fraction(total * gap[-1] - sums[v], total * denominator)


def date_tree(tree: PhyloTree, model: TimingModel, include_pendant: bool = False) -> EdgeLengthReport:
    """Expected lengths for every interior edge of a binary tree, plus pendant
    lengths and leaf depths when requested (pure-birth only).

    Depths are measured from the first split; with pendant lengths included
    every leaf sits at the same depth, which is a useful self-check.
    """
    _require_binary(tree)
    if include_pendant and model is not TimingModel.YULE:
        raise TreeError("pendant lengths are defined for the yule model only")
    if not tree.interior_count:  # a lone leaf has no edge
        return EdgeLengthReport(model=model, interior={}, pendant={}, leaf_depths={})

    gap, denominator = _gap_numerators(tree.interior_count, model)
    sums, total = _expected_gaps(tree, gap)
    scale = total * denominator
    interior: dict[tuple[int, int], Fraction] = {}
    for parent, child in tree.edges():
        if tree.children[child]:
            interior[(parent, child)] = Fraction(sums[child] - sums[parent], scale)

    pendant: dict[tuple[int, int], Fraction] = {}
    depths: dict[int, Fraction] = {}
    if include_pendant:
        last = total * gap[-1]
        per_parent: dict[int, Fraction] = {}
        for parent, child in tree.edges():
            if not tree.children[child]:
                if parent not in per_parent:
                    per_parent[parent] = Fraction(last - sums[parent], scale)
                pendant[(parent, child)] = per_parent[parent]
        start: dict[int, Fraction] = {tree.root: Fraction(0)}
        for parent, child in tree.edges():
            if tree.children[child]:
                start[child] = start[parent] + interior[(parent, child)]
        for parent, child in tree.edges():
            if not tree.children[child]:
                depths[child] = start[parent] + pendant[(parent, child)]

    return EdgeLengthReport(
        model=model, interior=interior, pendant=pendant, leaf_depths=depths
    )


# ---------------------------------------------------------------------------
# multifurcations
# ---------------------------------------------------------------------------


def _double_factorial_odd(d: int) -> int:
    """(2d - 3)!!, the number of rooted binary trees over d labeled children."""
    out = 1
    for f in range(2 * d - 3, 1, -2):
        out *= f
    return out


def _binary_groupings(items: tuple):
    """Every rooted binary shape over the given items, as nested pairs.

    The first item is pinned to the left part to enumerate each unordered
    split exactly once; order of emission is deterministic.
    """
    if len(items) == 1:
        yield items[0]
        return
    head, rest = items[0], items[1:]
    m = len(rest)
    for mask in range(2 ** m - 1):  # the full set must not stay with head
        left = tuple(rest[b] for b in range(m) if mask >> b & 1)
        right = tuple(rest[b] for b in range(m) if not mask >> b & 1)
        for left_shape in _binary_groupings((head,) + left):
            for right_shape in _binary_groupings(right):
                yield (left_shape, right_shape)


def resolve_polytomies(tree: PhyloTree, max_resolutions: int = 10000) -> ResolutionSet:
    """All binary refinements of a multifurcating tree, with pure-birth
    topology weights.

    A vertex with d children can be refined in (2d - 3)!! ways; refinements
    of distinct vertices combine independently.  The exact total is computed
    first and a ResolutionLimitError carrying it is raised when it exceeds
    ``max_resolutions``.
    """
    fan_out = [v for v in tree.interior_vertices() if len(tree.children[v]) > 2]
    if not fan_out:
        raise TreeError("tree is already binary; nothing to resolve")
    count = math.prod(_double_factorial_odd(len(tree.children[v])) for v in fan_out)
    if count > max_resolutions:
        raise ResolutionLimitError(count, max_resolutions)

    local_choices = [tuple(_binary_groupings(tree.children[v])) for v in fan_out]
    resolutions = []
    for combo in itertools.product(*local_choices):
        grouping_at = dict(zip(fan_out, combo))
        resolutions.append(_build_resolution(tree, grouping_at))
    if len(resolutions) != count:
        raise RuntimeError(f"built {len(resolutions)} refinements, expected {count}")
    return ResolutionSet(source=tree, resolutions=tuple(resolutions))


def _build_resolution(tree: PhyloTree, grouping_at: dict) -> Resolution:
    """Materialize one refinement.  Children lists are rebuilt with fresh ids;
    the original vertices keep their labels and are tracked in vertex_map."""
    children: list[list[int]] = []
    labels: list[str | None] = []
    vertex_map: dict[int, int] = {}

    def new_vertex(label, source=None):
        vid = len(children)
        children.append([])
        labels.append(label)
        if source is not None:
            vertex_map[source] = vid
        return vid

    # stack of (source vertex or grouping node, parent id in the new tree)
    root_id = new_vertex(tree.labels[tree.root], tree.root)
    stack = [(tree.root, root_id, True)]
    while stack:
        node, vid, is_source = stack.pop()
        if is_source:
            grouping = grouping_at.get(node)
            if grouping is None:
                for c in tree.children[node]:
                    cid = new_vertex(tree.labels[c], c)
                    children[vid].append(cid)
                    stack.append((c, cid, True))
            else:
                for part in grouping:
                    stack.append((part, vid, False))
        elif isinstance(node, int):
            cid = new_vertex(tree.labels[node], node)
            children[vid].append(cid)
            stack.append((node, cid, True))
        else:
            cid = new_vertex(None)
            children[vid].append(cid)
            for part in node:
                stack.append((part, cid, False))

    built, renum = assemble(children, labels)
    return Resolution(
        tree=built,
        weight=yule_topology_prob(built),
        vertex_map={src: renum[vid] for src, vid in vertex_map.items()},
    )


def polytomy_edge_lengths(
    tree: PhyloTree, model: TimingModel, max_resolutions: int = 10000
) -> dict:
    """Expected duration of every interior edge, keyed by (parent, child) in
    preorder of the child, averaged over all binary refinements of the tree.

    In a refinement the two endpoints of an edge may be separated by new
    vertices, so the per-refinement value is the length of the whole path
    between their images, which telescopes to E[G(image of child)] -
    E[G(image of parent)]; the refinements are enumerated once and each is
    dated by one kernel pass.  Weights are the refinements' pure-birth
    topology probabilities.  On n leaves that probability is the
    refinement's number of orders times 2^(n-1) / (n! (n-1)!), the same
    for every refinement, so the weighted average is a plain average over
    all ranked refinements: summed numerators over summed order counts.  On
    a binary tree this is ``date_tree(tree, model).interior``.
    """
    if tree.is_binary():
        return date_tree(tree, model).interior
    edges = [(p, c) for p, c in tree.edges() if tree.children[c]]
    refinements = resolve_polytomies(tree, max_resolutions)
    gap, denominator = _gap_numerators(tree.leaf_count - 1, model)
    numerators = dict.fromkeys(edges, 0)
    orders = 0
    for refinement in refinements.resolutions:
        sums, total = _expected_gaps(refinement.tree, gap)
        image = refinement.vertex_map
        for p, c in edges:
            numerators[(p, c)] += sums[image[c]] - sums[image[p]]
        orders += total
    return {edge: Fraction(value, orders * denominator) for edge, value in numerators.items()}


def polytomy_edge_length(
    tree: PhyloTree,
    u: int,
    v: int,
    model: TimingModel,
    max_resolutions: int = 10000,
) -> Fraction:
    """Expected duration of the edge from u down to interior child v, averaged
    over all binary refinements of the tree as in polytomy_edge_lengths; on a
    binary tree this is interior_edge_length."""
    tree.check_vertex(u)
    tree.check_vertex(v)
    if tree.parent[v] != u:
        raise TreeError(f"{tree.name(u)} is not the parent of {tree.name(v)}")
    if tree.is_leaf(v):
        raise TreeError("pendant edges are out of scope for refinement averaging")
    if tree.is_binary():
        return interior_edge_length(tree, u, v, model)
    return polytomy_edge_lengths(tree, model, max_resolutions)[(u, v)]


def _require_binary(tree: PhyloTree) -> None:
    if not tree.is_binary():
        raise TreeError(
            "tree has multifurcations; resolve them or use polytomy_edge_length"
        )
