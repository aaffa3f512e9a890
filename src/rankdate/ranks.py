"""Distributions of interior-vertex positions in a uniformly drawn order.

The model: every admissible order of the interior vertices (each vertex after
its ancestors) is equally likely.  This module computes, without enumeration,

* the exact distribution of the position ("rank", 1-based from the root) of
  a single interior vertex,
* the exact joint distribution of the ranks of an ancestor-descendant pair,
* the probability that one interior vertex precedes another.

All results are exact rationals.  One kernel, ``_order_counts``, serves the
dating code in ``timing``: a single preorder pass counts, for every interior
vertex at once, the admissible orders that give it each rank.  For an
interior child c of p, with K interior vertices and s_c of them in c's
subtree,

    N_c(t) = C(K - t, s_c - 1) * sum_{r < t} N_p(r) / C(K - r, s_c),

because once p has rank r every set of s_c positions after r is equally
likely to hold c's subtree; each quotient is an exact integer.  The counts
are the hook-length forest counts (Knuth, TAOCP Vol. 3, 5.1.4), and the pass
costs O(K^2) integer operations for the whole tree.

The public single-vertex routine walks the other way, from the query vertex
up to the root, keeping counts of the orders of the current subtree grouped
by the slot the query vertex occupies; each step merges in the sibling
subtrees with two binomial factors (how the new vertices interleave before
and after the slot).  Multifurcations need no special case: all sibling
subtrees at a step act as one block whose internal order counts cancel when
the final vector is normalized.  The joint law of a nested pair peels the
path between them.  These walks are independent of the kernel, and the tests
check the kernel against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .combinat import BinomialTable, binomial_table_for, count_rank_functions
from .tree import PhyloTree, TreeError, prune_below

# Largest distance from 1 tolerated in the sum of a float rank law.
FLOAT_SUM_TOLERANCE = 1e-9


@dataclass(frozen=True)
class RankDistribution:
    """Distribution of the rank of one interior vertex.

    ``p[k]`` is the probability of rank k + 1; ranks run 1..len(p).
    Index the object directly with a 1-based rank.
    """

    vertex: int
    p: tuple[Fraction, ...]

    def __getitem__(self, rank: int) -> Fraction:
        if not 1 <= rank <= len(self.p):
            raise IndexError(f"rank {rank} outside 1..{len(self.p)}")
        return self.p[rank - 1]

    def support(self):
        """Yield (rank, probability) for the ranks with positive probability."""
        for k, prob in enumerate(self.p):
            if prob:
                yield k + 1, prob


@dataclass(frozen=True)
class RankSummary:
    mean: Fraction
    variance: Fraction


@dataclass(frozen=True)
class PlacementCountTable:
    """Intermediate counts from the single-vertex walk, for inspection.

    ``steps[m]`` belongs to the (m+1)-th vertex on the path from the query
    vertex to the root; entry i of a step is proportional to the number of
    orders of that subtree placing the query vertex at position i (entry 0 is
    unused padding so positions are 1-based).
    """

    vertex: int
    steps: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class JointRankTable:
    """Joint rank distribution of an ancestor u and a descendant v.

    ``q`` maps (rank of u, rank of v) to probability; only pairs with
    positive probability are stored.
    """

    u: int
    v: int
    q: dict

    def marginal_u(self) -> dict:
        out: dict[int, Fraction] = {}
        for (i, _j), prob in self.q.items():
            out[i] = out.get(i, 0) + prob
        return out

    def marginal_v(self) -> dict:
        out: dict[int, Fraction] = {}
        for (_i, j), prob in self.q.items():
            out[j] = out.get(j, 0) + prob
        return out


# ---------------------------------------------------------------------------
# top-down kernel
# ---------------------------------------------------------------------------


def _order_counts(tree: PhyloTree, targets=None):
    """Admissible orders counted by rank, for many vertices in one pass.

    Returns ``(total, laws)``: ``total`` is ``count_rank_functions(tree)``
    and ``laws`` yields ``(v, counts)`` for the interior vertices in
    preorder, where ``counts[t]`` (t = 1..K, entry 0 unused) is the number of
    admissible orders giving v rank t, so each ``counts`` sums to ``total``.
    With ``targets`` only the vertices on the paths from the root to them
    are yielded.  A vertex's counts are dropped once its children's are
    built, so the pass holds only the counts of pending siblings.
    """
    total = count_rank_functions(tree)
    wanted = None
    if targets is not None:
        wanted = set()
        for v in targets:
            wanted.update(tree.path_to_root(v))
    return total, _top_down(tree, total, wanted)


def _top_down(tree: PhyloTree, total: int, wanted):
    k = tree.interior_count
    children = tree.children
    interior_below = tree.interior_below
    comb = math.comb
    root_counts = [0] * (k + 1)
    root_counts[1] = total
    pending = {tree.root: root_counts}
    for p in range(tree.vertex_count):  # preorder: every parent precedes its children
        counts = pending.pop(p, None)
        if counts is None:
            continue
        for c in children[p]:
            if not children[c] or (wanted is not None and c not in wanted):
                continue
            size = interior_below[c]
            below = [0] * (k + 1)
            running = 0
            for t in range(2, k - size + 2):
                before = counts[t - 1]
                if before:
                    quotient, remainder = divmod(before, comb(k - t + 1, size))
                    if remainder:
                        raise ArithmeticError("rank recurrence left a remainder")
                    running += quotient
                if running:
                    below[t] = running * comb(k - t, size - 1)
            pending[c] = below
        yield p, counts


# ---------------------------------------------------------------------------
# single-vertex walk
# ---------------------------------------------------------------------------


def _placement_rows(tree: PhyloTree, v: int, stop: int, table: BinomialTable):
    """Yield the count vector after each path step from v up to ``stop``.

    Rows are full-length lists indexed 1..interior_below[stop]; the caller
    normally keeps only the final row.  Works for exact and float tables
    alike; float rows are rescaled when they grow dangerously large, which
    is harmless because every consumer normalizes.
    """
    total = tree.interior_below[stop]
    one = table.one
    is_float = isinstance(one, float)
    choose = table.choose

    row = [one * 0] * (total + 1)
    row[1] = one
    yield row

    current_size = tree.interior_below[v]
    x = v
    while x != stop:
        parent = tree.parent[x]
        sibling_size = tree.interior_below[parent] - 1 - tree.interior_below[x]
        new_size = tree.interior_below[parent]
        new_row = [one * 0] * (total + 1)
        base = current_size + sibling_size  # = new_size - 1
        for i in range(2, new_size + 1):
            top = min(sibling_size, i - 2)
            acc = one * 0
            for j in range(top + 1):
                prev = row[i - j - 1]
                if prev:
                    acc += prev * choose(base - (i - 1), sibling_size - j) * choose(i - 2, j)
            new_row[i] = acc
        if is_float:
            peak = max(new_row)
            if peak > 1e250:
                new_row = [value / peak for value in new_row]
        row = new_row
        current_size = new_size
        x = parent
        yield row


def _final_row(tree: PhyloTree, v: int, stop: int, table: BinomialTable) -> list:
    for row in _placement_rows(tree, v, stop, table):
        pass
    return row


def _require_interior(tree: PhyloTree, v: int) -> None:
    tree.check_vertex(v)
    if tree.is_leaf(v):
        raise TreeError(f"vertex {tree.name(v)!r} is a leaf; leaves are not ranked")


def placement_counts(tree: PhyloTree, v: int) -> PlacementCountTable:
    """All intermediate count vectors of the walk from v to the root."""
    _require_interior(tree, v)
    table = binomial_table_for(tree)
    steps = tuple(
        tuple(row) for row in _placement_rows(tree, v, tree.root, table)
    )
    return PlacementCountTable(vertex=v, steps=steps)


def rank_probabilities(tree: PhyloTree, v: int) -> RankDistribution:
    """Exact distribution of the rank of interior vertex v (1 = root's slot)."""
    _require_interior(tree, v)
    row = _final_row(tree, v, tree.root, binomial_table_for(tree))
    total = sum(row)
    return RankDistribution(
        vertex=v, p=tuple(Fraction(c, total) for c in row[1:])
    )


def rank_probabilities_float(tree: PhyloTree, v: int) -> tuple[float, ...]:
    """Float64 variant of rank_probabilities, for large-tree benchmarking.

    Entry k is the probability of rank k + 1.  Subject to float rounding; the
    exact routine is the reference.  Raises TreeError instead of returning
    a law that is not finite or whose sum is further than
    ``FLOAT_SUM_TOLERANCE`` from 1, as happens when the binomial factors of
    a very wide tree overflow.
    """
    _require_interior(tree, v)
    row = _final_row(tree, v, tree.root, binomial_table_for(tree, exact=False))
    total = sum(row)
    probs = tuple(c / total for c in row[1:])
    if not all(map(math.isfinite, probs)) or abs(math.fsum(probs) - 1) > FLOAT_SUM_TOLERANCE:
        raise TreeError(
            f"float rank law of {tree.name(v)} is not finite or not normalized "
            f"(float binomials overflow at {tree.interior_count} interior vertices); "
            "use rank_probabilities"
        )
    return probs


def rank_moments(dist: RankDistribution) -> RankSummary:
    """Mean and variance of a rank distribution."""
    if sum(dist.p) != 1:
        raise TreeError("rank distribution does not sum to 1")
    mean = sum((Fraction(k + 1) * prob for k, prob in enumerate(dist.p)), Fraction(0))
    second = sum(
        (Fraction((k + 1) ** 2) * prob for k, prob in enumerate(dist.p)), Fraction(0)
    )
    return RankSummary(mean=mean, variance=second - mean * mean)


# ---------------------------------------------------------------------------
# ancestor-descendant joint distribution
# ---------------------------------------------------------------------------


def _interleave_weight(outside: int, block: int, position: int, choose):
    """Ways to interleave a block of ``block`` ordered vertices, whose head is
    pinned to overall position ``position``, into a sequence of ``outside``
    vertices: C(outside + block - position, block - 1)."""
    return choose(outside + block - position, block - 1)


def joint_rank_prob(tree: PhyloTree, u: int, v: int) -> JointRankTable:
    """Exact joint distribution of (rank of u, rank of v), u an ancestor of v.

    The walk peels the path from u down to v: at each step the subtree
    hanging from the next path vertex is folded in, turning the running joint
    of (rank of u, rank of the current path vertex) into the next one.  Only
    cumulative counts of the previous level are needed, so each step is a
    prefix sum and a binomial weight.
    """
    _require_interior(tree, v)
    tree.check_vertex(u)
    if u == v or not tree.is_strict_ancestor(u, v):
        raise TreeError(
            f"{tree.name(u)} must be a proper ancestor of {tree.name(v)}"
        )

    # path u = y[0] > y[1] > ... > y[d] = v
    path = [v]
    while path[-1] != u:
        path.append(tree.parent[path[-1]])
    path.reverse()

    total_interior = tree.interior_count
    table = binomial_table_for(tree)
    choose = table.choose

    # Counts of orders of the tree truncated below y[1], by the rank of u.
    truncated, renum = prune_below(tree, path[1])
    base_row = _final_row(truncated, renum[u], truncated.root, binomial_table_for(truncated))

    # grid[i][h]: orders (up to constant factors) with rank(u) = i and the
    # current path vertex at rank h, in the tree truncated below the next
    # path vertex.
    width = total_interior + 1
    grid = [[0] * width for _ in range(len(base_row))]
    for i, count in enumerate(base_row):
        if count:
            grid[i][i] = count

    depth = len(path) - 1
    for t in range(1, depth + 1):
        outside = total_interior - tree.interior_below[path[t]]
        below_next = tree.interior_below[path[t + 1]] if t < depth else 0
        block = tree.interior_below[path[t]] - below_next
        span = outside + block
        new_grid = [[0] * width for _ in range(len(grid))]
        for i, old_row in enumerate(grid):
            if not any(old_row):
                continue
            new_row = new_grid[i]
            running = 0
            for h in range(1, span + 1):
                running += old_row[h - 1]
                if running:
                    weight = _interleave_weight(outside, block, h, choose)
                    if weight:
                        new_row[h] = running * weight
        grid = new_grid

    total = sum(sum(row) for row in grid)
    q = {
        (i, j): Fraction(count, total)
        for i, row in enumerate(grid)
        for j, count in enumerate(row)
        if count
    }
    return JointRankTable(u=u, v=v, q=q)


# ---------------------------------------------------------------------------
# which of two vertices comes first
# ---------------------------------------------------------------------------


def compare(tree: PhyloTree, u: int, v: int) -> Fraction:
    """Probability that u is ranked strictly before v.

    Nested vertices are decided by topology alone.  Otherwise the two
    subtrees hanging from the fork (their common ancestor) are examined: the
    rank of each query vertex within its own subtree is combined with the
    number of ways the two subtrees' orders interleave.  Sibling subtrees at
    a multifurcating fork that contain neither query vertex only dilute both
    sides equally, so they are ignored.
    """
    _require_interior(tree, u)
    _require_interior(tree, v)
    if u == v:
        raise TreeError("compare needs two distinct vertices")
    fork = tree.mrca(u, v)
    if fork == u:
        return Fraction(1)
    if fork == v:
        return Fraction(0)

    side_u = tree.child_toward(fork, u)
    side_v = tree.child_toward(fork, v)
    table = binomial_table_for(tree)
    choose = table.choose

    row_u = _final_row(tree, u, side_u, table)
    row_v = _final_row(tree, v, side_v, table)
    size_u = tree.interior_below[side_u]
    size_v = tree.interior_below[side_v]

    # cumulative counts of u's rank within its subtree
    ahead = [0] * (size_u + 1)
    running = 0
    for j in range(1, size_u + 1):
        running += row_u[j]
        ahead[j] = running

    numerator = 0
    for i in range(1, size_v + 1):
        count_v = row_v[i]
        if not count_v:
            continue
        for j in range(1, size_u + 1):
            if ahead[j]:
                numerator += (
                    count_v
                    * choose(i - 1 + j, j)
                    * choose(size_v - i + size_u - j, size_u - j)
                    * ahead[j]
                )

    denominator = sum(row_u) * sum(row_v) * choose(size_u + size_v, size_v)
    return Fraction(numerator, denominator)
