"""Tree generators shared by the test modules.

Shapes are canonical nested tuples: a leaf is ``()`` and an interior vertex
is the sorted tuple of its children's shapes.  Sorting makes equal shapes
compare equal, so catalogs contain each shape exactly once.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations_with_replacement, product

from rankdate import PhyloTree

LEAF = ()

# How many distinct shapes exist per leaf count, used as self-checks so a
# generator bug cannot silently shrink the catalogs.
ALL_SHAPE_COUNTS = {1: 1, 2: 1, 3: 2, 4: 5, 5: 12, 6: 33, 7: 90, 8: 261}
BINARY_SHAPE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23}
LABELED_TOPOLOGY_COUNTS = {2: 1, 3: 3, 4: 15, 5: 105, 6: 945}


def _partitions(n: int, cap: int | None = None):
    """Non-increasing integer partitions of n."""
    cap = n if cap is None else cap
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def all_shapes(n: int) -> tuple:
    """Every rooted shape with n leaves where interior vertices have >= 2 children."""
    if n == 1:
        return (LEAF,)
    out = set()
    for parts in _partitions(n):
        if len(parts) < 2:
            continue
        sizes = sorted(set(parts))
        pools = []
        for s in sizes:
            m = parts.count(s)
            pools.append(list(combinations_with_replacement(all_shapes(s), m)))
        for pick in product(*pools):
            children = tuple(sorted(c for group in pick for c in group))
            out.add(children)
    shapes = tuple(sorted(out))
    assert len(shapes) == ALL_SHAPE_COUNTS[n]
    return shapes


@lru_cache(maxsize=None)
def binary_shapes(n: int) -> tuple:
    shapes = tuple(s for s in all_shapes(n) if _is_binary_shape(s))
    assert len(shapes) == BINARY_SHAPE_COUNTS[n]
    return shapes


def _is_binary_shape(shape) -> bool:
    if shape == LEAF:
        return True
    return len(shape) == 2 and all(_is_binary_shape(c) for c in shape)


def shape_to_tree(shape) -> PhyloTree:
    """Build a tree from a shape, labelling leaves t1, t2, ... left to right."""
    counter = [0]

    def convert(node):
        if node == LEAF:
            counter[0] += 1
            return (f"t{counter[0]}", ())
        return (None, tuple(convert(c) for c in node))

    if shape == LEAF:
        raise ValueError("a bare leaf is not a tree with an interior vertex")
    return PhyloTree.from_structure(convert(shape))


def catalog(min_leaves: int = 2, max_leaves: int = 8):
    """All multifurcating shapes as trees, smallest first."""
    for n in range(min_leaves, max_leaves + 1):
        for shape in all_shapes(n):
            yield shape_to_tree(shape)


# ---------------------------------------------------------------------------
# labeled binary topologies via leaf insertion
# ---------------------------------------------------------------------------


def _insert_everywhere(node, leaf):
    """Yield copies of ``node`` with ``leaf`` attached along each edge, plus
    one where the whole node gains a new root with ``leaf`` as sibling."""
    yield (node, leaf)
    if node == LEAF or isinstance(node, str):
        return
    for k, child in enumerate(node):
        for replaced in _insert_everywhere(child, leaf):
            yield node[:k] + (replaced,) + node[k + 1 :]


def labeled_topologies(n: int):
    """Every rooted binary topology on leaves t1..tn, as trees."""
    assert n >= 2
    trees = [("t1", "t2")]
    for k in range(3, n + 1):
        trees = [t for old in trees for t in _insert_everywhere(old, f"t{k}")]
    if n in LABELED_TOPOLOGY_COUNTS:
        assert len(trees) == LABELED_TOPOLOGY_COUNTS[n]

    def convert(node):
        if isinstance(node, str):
            return (node, ())
        return (None, tuple(convert(c) for c in node))

    return [PhyloTree.from_structure(convert(t)) for t in trees]


# ---------------------------------------------------------------------------
# random and extreme trees
# ---------------------------------------------------------------------------


def random_binary_tree(rng: random.Random, n_leaves: int) -> PhyloTree:
    """Uniform-ish random binary topology grown by random leaf insertion."""
    assert n_leaves >= 2
    node = ("t1", "t2")
    for k in range(3, n_leaves + 1):
        spots = list(_insert_everywhere(node, f"t{k}"))
        node = spots[rng.randrange(len(spots))]

    def convert(x):
        if isinstance(x, str):
            return (x, ())
        return (None, tuple(convert(c) for c in x))

    return PhyloTree.from_structure(convert(node))


def random_tree(rng: random.Random, n_leaves: int) -> PhyloTree:
    """Random topology that may contain multifurcations: grow a binary tree,
    then contract a few interior edges."""
    tree = random_binary_tree(rng, n_leaves)
    structure = tree.structure()

    def maybe_flatten(node):
        label, children = node
        if not children:
            return node
        flat = []
        for child in children:
            sub = maybe_flatten(child)
            if sub[1] and rng.random() < 0.3:
                flat.extend(sub[1])  # contract the edge to this child
            else:
                flat.append(sub)
        return (label, tuple(flat))

    return PhyloTree.from_structure(maybe_flatten(structure))


def caterpillar(n_leaves: int) -> str:
    """Newick text for the comb tree on a1..an (deepest cherry is (a1,a2))."""
    assert n_leaves >= 2
    text = "(a1,a2)"
    for k in range(3, n_leaves + 1):
        text = f"({text},a{k})"
    return text + ";"


def star(n_leaves: int) -> str:
    return "(" + ",".join(f"a{k}" for k in range(1, n_leaves + 1)) + ");"


def balanced(n_leaves: int) -> str:
    """Newick text for the tree whose every vertex splits its leaves
    ceil/floor in half, on leaves a1..an."""
    assert n_leaves >= 2

    def build(first: int, count: int) -> str:
        if count == 1:
            return f"a{first}"
        left = (count + 1) // 2
        return f"({build(first, left)},{build(first + left, count - left)})"

    return build(1, n_leaves) + ";"
