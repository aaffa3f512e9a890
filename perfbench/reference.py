"""Reference computations for the benchmark's checks, made apart from rankdate.

Nothing here imports the program.  Trees are plain children lists numbered
in preorder (root 0, children left to right), which is the numbering rankdate
documents for parsed Newick, so a vertex id here names the same vertex there.

The rank law is the top-down recurrence over the path from the root: for an
interior child c of p, with K interior vertices and s_c interior vertices in
c's subtree,

    N_c(t) = C(K - t, s_c - 1) * sum_{r < t} N_p(r) / C(K - r, s_c)

where N_v(t) counts the admissible orders that give v rank t.  Given rank r
for p, every set of s_c positions after r is equally likely for c's subtree,
so each quotient is an exact integer.  Edge lengths follow by linearity:
E[len(p -> c)] = E[G(rank c)] - E[G(rank p)], with G the expected time from
the first split to the t-th.  Multifurcating trees are averaged over their
binary refinements, each weighted by its pure-birth topology probability,
which is proportional to 1 / prod(leaves below - 1) over interior vertices.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


class RefTree:
    """A rooted tree as preorder-numbered children lists.

    ``children[v]`` lists v's children and ``labels[v]`` its label (None for
    interior vertices).  The constructor renumbers any input numbering into
    preorder from ``root``; ``renumber`` maps input ids to preorder ids.
    """

    def __init__(self, children, labels, root=0):
        order = []
        stack = [root]
        while stack:
            v = stack.pop()
            order.append(v)
            stack.extend(reversed(children[v]))
        self.renumber = {old: new for new, old in enumerate(order)}
        self.children = [[self.renumber[c] for c in children[old]] for old in order]
        self.labels = [labels[old] for old in order]
        count = len(order)
        self.parent = [None] * count
        self.depth = [0] * count
        for v in range(count):
            for c in self.children[v]:
                self.parent[c] = v
                self.depth[c] = self.depth[v] + 1
        self.leaves_below = [0] * count
        self.interior_below = [0] * count
        for v in range(count - 1, -1, -1):
            kids = self.children[v]
            if kids:
                self.leaves_below[v] = sum(self.leaves_below[c] for c in kids)
                self.interior_below[v] = 1 + sum(self.interior_below[c] for c in kids)
            else:
                self.leaves_below[v] = 1

    @property
    def interior_count(self) -> int:
        return self.interior_below[0]

    @property
    def leaf_count(self) -> int:
        return self.leaves_below[0]

    def interior(self):
        return [v for v in range(len(self.children)) if self.children[v]]

    def leaves(self):
        return [v for v in range(len(self.children)) if not self.children[v]]

    def name(self, v: int) -> str:
        return self.labels[v] if self.labels[v] is not None else f"#{v}"

    def is_binary(self) -> bool:
        return all(len(kids) in (0, 2) for kids in self.children)

    def path_from_root(self, v: int):
        path = [v]
        while self.parent[path[-1]] is not None:
            path.append(self.parent[path[-1]])
        return path[::-1]

    def newick(self) -> str:
        """Newick text, written without recursion so deep trees are safe."""
        rendered = [""] * len(self.children)
        for v in range(len(self.children) - 1, -1, -1):
            kids = self.children[v]
            if kids:
                rendered[v] = "(" + ",".join(rendered[c] for c in kids) + ")"
            else:
                rendered[v] = self.labels[v]
        return rendered[0] + ";"


# ---------------------------------------------------------------------------
# rank law
# ---------------------------------------------------------------------------


def order_count(tree: RefTree) -> int:
    """Number of admissible orders: K! / prod of interior subtree sizes."""
    sizes = math.prod(tree.interior_below[v] for v in tree.interior())
    count, remainder = divmod(math.factorial(tree.interior_count), sizes)
    if remainder:
        raise ArithmeticError("order count is not an integer")
    return count


def rank_counts(tree: RefTree, targets=None) -> tuple[dict, int]:
    """Order counts by rank: ``laws[v][t]`` for t in 1..K, and the total.

    With ``targets`` only the vertices on the paths from the root to them
    are computed, which keeps one query on a large tree cheap.
    """
    k = tree.interior_count
    total = order_count(tree)
    wanted = None
    if targets is not None:
        wanted = set()
        for v in targets:
            wanted.update(tree.path_from_root(v))
    root_law = [0] * (k + 1)
    root_law[1] = total
    laws = {0: root_law}
    low = {0: 1}
    for p in range(len(tree.children)):
        if p not in laws:
            continue
        law = laws[p]
        for c in tree.children[p]:
            if not tree.children[c] or (wanted is not None and c not in wanted):
                continue
            size = tree.interior_below[c]
            out = [0] * (k + 1)
            running = 0
            start = low[p]
            for t in range(start + 1, k - size + 2):
                r = t - 1
                if law[r]:
                    quotient, remainder = divmod(law[r], math.comb(k - r, size))
                    if remainder:
                        raise ArithmeticError("rank recurrence left a remainder")
                    running += quotient
                out[t] = math.comb(k - t, size - 1) * running
            laws[c] = out
            low[c] = start + 1
    return laws, total


def rank_law(tree: RefTree, v: int) -> tuple[Fraction, ...]:
    """P(rank v = t) for t = 1..K, from the path root -> v only."""
    laws, total = rank_counts(tree, [v])
    return tuple(Fraction(n, total) for n in laws[v][1:])


def _counts_within(tree: RefTree, top: int, v: int) -> tuple[list, int]:
    """Order counts by v's rank within the subtree at ``top``, and the total."""
    sub = RefTree(tree.children, tree.labels, root=top)
    laws, total = rank_counts(sub, [sub.renumber[v]])
    return laws[sub.renumber[v]], total


def precedence(tree: RefTree, u: int, w: int) -> Fraction:
    """P(u is ranked before w) for interior vertices neither above the other.

    Below their last common ancestor, u lies in the subtree at one child (a
    interior vertices) and w in the subtree at another (b).  Restricted to
    these two subtrees an order is a uniform order of each, interleaved in
    one of C(a + b, a) equally likely ways.  With u i-th in its subtree and
    m of the b vertices before it (C(i - 1 + m, m) * C(a - i + b - m, b - m)
    interleavings), u comes first exactly when w's rank in its own subtree
    exceeds m.
    """
    path_u, path_w = tree.path_from_root(u), tree.path_from_root(w)
    split = 0
    while split < min(len(path_u), len(path_w)) and path_u[split] == path_w[split]:
        split += 1
    if split in (len(path_u), len(path_w)):
        raise ValueError("precedence needs two vertices neither above the other")
    counts_u, total_u = _counts_within(tree, path_u[split], u)
    counts_w, total_w = _counts_within(tree, path_w[split], w)
    a, b = len(counts_u) - 1, len(counts_w) - 1
    above = [0] * (b + 2)  # above[j]: orders of w's subtree giving w rank >= j
    for j in range(b, 0, -1):
        above[j] = above[j + 1] + counts_w[j]
    favourable = 0
    for i, n in enumerate(counts_u):
        if n:
            favourable += n * sum(
                math.comb(i - 1 + m, m) * math.comb(a - i + b - m, b - m) * above[m + 1]
                for m in range(b)
            )
    return Fraction(favourable, total_u * total_w * math.comb(a + b, a))


# ---------------------------------------------------------------------------
# expected edge lengths
# ---------------------------------------------------------------------------


def gap_prefix(limit: int, model: str) -> list:
    """G(t): expected time from the first split to the t-th, t = 0..limit."""
    g = [Fraction(0)] * (limit + 1)
    for t in range(2, limit + 1):
        step = Fraction(1, t) if model == "yule" else Fraction(1, t * (t - 1))
        g[t] = g[t - 1] + step
    return g


def expected_g(tree: RefTree, model: str) -> dict:
    """E[G(rank v)] for every interior vertex v."""
    laws, total = rank_counts(tree)
    g = gap_prefix(tree.interior_count, model)
    return {
        v: sum((n * g[t] for t, n in enumerate(law) if n), Fraction(0)) / total
        for v, law in laws.items()
    }


def date_binary(tree: RefTree, model: str, pendant: bool):
    """Expected interior and pendant edge lengths of a binary tree, keyed
    by (parent, child), and leaf depths from the first split."""
    eg = expected_g(tree, model)
    interior = {}
    pendants = {}
    last = gap_prefix(tree.interior_count, model)[tree.interior_count]
    for c in range(1, len(tree.children)):
        p = tree.parent[c]
        if tree.children[c]:
            interior[(p, c)] = eg[c] - eg[p]
        elif pendant:
            pendants[(p, c)] = last - eg[p]
    depths = {}
    if pendant:
        start = {0: Fraction(0)}
        for c in range(1, len(tree.children)):
            p = tree.parent[c]
            length = interior.get((p, c), pendants.get((p, c)))
            start[c] = start[p] + length
            if not tree.children[c]:
                depths[c] = start[c]
    return interior, pendants, depths


def harmonic(n: int) -> Fraction:
    return sum((Fraction(1, m) for m in range(1, n + 1)), Fraction(0))


# ---------------------------------------------------------------------------
# binary refinements of multifurcations
# ---------------------------------------------------------------------------


def _insertions(shape, item):
    """Every way to attach ``item`` to a binary shape: above its root or on
    the edge above any of its parts."""
    yield (shape, item)
    if isinstance(shape, tuple):
        left, right = shape
        for part in _insertions(left, item):
            yield (part, right)
        for part in _insertions(right, item):
            yield (left, part)


def binary_shapes(items):
    """Every rooted binary tree over the items, as nested pairs; built by
    inserting each item into every tree over the ones before it, so there
    are (2d - 3)!! of them for d items."""
    shapes = [items[0]]
    for item in items[1:]:
        shapes = [grown for shape in shapes for grown in _insertions(shape, item)]
    return shapes


def refinements(tree: RefTree):
    """Yield (binary RefTree, map from tree's vertex ids to the refinement's)."""
    fans = [v for v in tree.interior() if len(tree.children[v]) > 2]
    choices = [binary_shapes(tree.children[v]) for v in fans]
    for combo in itertools.product(*choices):
        shape_at = dict(zip(fans, combo))
        children = [list(kids) for kids in tree.children]
        labels = list(tree.labels)

        def attach(part):
            if isinstance(part, int):
                return part
            children.append([attach(part[0]), attach(part[1])])
            labels.append(None)
            return len(children) - 1

        for v, shape in shape_at.items():
            children[v] = [attach(shape[0]), attach(shape[1])]
        refined = RefTree(children, labels)
        yield refined, {v: refined.renumber[v] for v in range(len(tree.children))}


def topology_weight(tree: RefTree) -> Fraction:
    """Pure-birth topology probability of a binary tree, up to a factor that
    depends on the leaf count only."""
    return Fraction(1, math.prod(tree.leaves_below[v] - 1 for v in tree.interior()))


def refinement_average(tree: RefTree, model: str) -> dict:
    """Expected length of every interior edge of a multifurcating tree,
    averaged over its binary refinements: the length of an edge in one
    refinement is that of the path between its endpoints' images."""
    sums = {}
    total_weight = Fraction(0)
    for refined, image in refinements(tree):
        weight = topology_weight(refined)
        total_weight += weight
        eg = expected_g(refined, model)
        for c in range(1, len(tree.children)):
            if tree.children[c]:
                p = tree.parent[c]
                key = (p, c)
                sums[key] = sums.get(key, 0) + weight * (eg[image[c]] - eg[image[p]])
    return {key: value / total_weight for key, value in sums.items()}
