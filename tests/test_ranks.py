import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import rankdate.ranks as ranks_module
from rankdate import (
    BinomialTable,
    RankDistribution,
    TreeError,
    compare,
    count_rank_functions,
    joint_rank_prob,
    parse_newick,
    placement_counts,
    rank_moments,
    rank_probabilities,
    rank_probabilities_float,
)
from rankdate.oracle import (
    brute_compare,
    brute_joint,
    brute_rank_probabilities,
)
from rankdate.ranks import FLOAT_SUM_TOLERANCE, _interleave_weight, _order_counts
from treegen import balanced, caterpillar, catalog, random_binary_tree, random_tree

F = Fraction


def dist_map(dist):
    return dict(dist.support())


# ---------------------------------------------------------------------------
# single-vertex law
# ---------------------------------------------------------------------------


def test_rank_probabilities_t5_golden(t5):
    assert dist_map(rank_probabilities(t5, 0)) == {1: F(1)}
    assert dist_map(rank_probabilities(t5, 1)) == {2: F(1, 3), 3: F(1, 3), 4: F(1, 3)}
    assert dist_map(rank_probabilities(t5, 4)) == {2: F(2, 3), 3: F(1, 3)}
    assert dist_map(rank_probabilities(t5, 5)) == {3: F(1, 3), 4: F(2, 3)}


def test_rank_probabilities_forced_order():
    tree = parse_newick(caterpillar(6))
    for v in tree.interior_vertices():
        assert dist_map(rank_probabilities(tree, v)) == {tree.depth[v] + 1: F(1)}


def test_rank_probabilities_sum_to_one(t5, bal4, poly5):
    for tree in (t5, bal4, poly5):
        for v in tree.interior_vertices():
            assert sum(rank_probabilities(tree, v).p) == 1


def test_rank_distribution_indexing(t5):
    dist = rank_probabilities(t5, 4)
    assert dist[2] == F(2, 3)
    assert dist[1] == 0
    assert len(dist.p) == t5.interior_count
    with pytest.raises(IndexError):
        dist[0]
    with pytest.raises(IndexError):
        dist[5]


def test_rank_probabilities_rejects_leaves(t5):
    with pytest.raises(TreeError):
        rank_probabilities(t5, t5.vertex("a"))


def test_rank_moments_golden(t5):
    summary = rank_moments(rank_probabilities(t5, 1))
    assert (summary.mean, summary.variance) == (F(3), F(2, 3))
    summary = rank_moments(rank_probabilities(t5, 5))
    assert (summary.mean, summary.variance) == (F(11, 3), F(2, 9))
    root = rank_moments(rank_probabilities(t5, 0))
    assert (root.mean, root.variance) == (F(1), F(0))


def test_rank_moments_validates_mass():
    bogus = RankDistribution(vertex=1, p=(F(1, 2), F(1, 4)))
    with pytest.raises(TreeError):
        rank_moments(bogus)


def test_nonbinary_aggregation_golden():
    # the three unplaced sibling blocks collapse into one; the cherry is
    # equally likely at each rank after the root
    tree = parse_newick("((a,b),(c,d),(e,f),g);")
    cherry = tree.mrca(tree.vertex("a"), tree.vertex("b"))
    assert dist_map(rank_probabilities(tree, cherry)) == {
        2: F(1, 3),
        3: F(1, 3),
        4: F(1, 3),
    }


def test_placement_counts_structure(t5):
    table = placement_counts(t5, 5)
    assert table.vertex == 5
    # one row per vertex on the path 5 -> 4 -> 0
    assert len(table.steps) == 3
    final = table.steps[-1]
    assert len(final) == t5.interior_count + 1
    assert final[0] == 0
    total = sum(final)
    probs = tuple(F(c, total) for c in final[1:])
    assert probs == rank_probabilities(t5, 5).p


def test_brute_agreement_small_catalog():
    for tree in catalog(2, 6):
        for v in tree.interior_vertices():
            assert rank_probabilities(tree, v).p == brute_rank_probabilities(tree, v).p


@given(st.integers(0, 10**6), st.integers(3, 7))
@settings(max_examples=30, deadline=None)
def test_brute_agreement_random_trees(seed, n):
    rng = random.Random(seed)
    tree = random_tree(rng, n)
    vs = tree.interior_vertices()
    v = vs[rng.randrange(len(vs))]
    assert rank_probabilities(tree, v).p == brute_rank_probabilities(tree, v).p


def test_child_order_invariance():
    left = parse_newick("((a,b),((c,d),e));")
    right = parse_newick("((e,(d,c)),(b,a));")
    for name_pair in (("a", "b"), ("c", "d")):
        u = left.mrca(left.vertex(name_pair[0]), left.vertex(name_pair[1]))
        w = right.mrca(right.vertex(name_pair[0]), right.vertex(name_pair[1]))
        assert rank_probabilities(left, u).p == rank_probabilities(right, w).p


def test_float_path_matches_exact(t5, poly5):
    trees = [t5, poly5, parse_newick(caterpillar(40))]
    for tree in trees:
        for v in tree.interior_vertices():
            exact = [float(p) for p in rank_probabilities(tree, v).p]
            approx = rank_probabilities_float(tree, v)
            assert len(exact) == len(approx)
            for a, b in zip(exact, approx):
                assert abs(a - b) < 1e-12


def test_float_path_deep_tree_no_overflow():
    tree = parse_newick(caterpillar(420))
    deepest = max(tree.interior_vertices(), key=lambda v: tree.depth[v])
    probs = rank_probabilities_float(tree, deepest)
    assert abs(sum(probs) - 1.0) < 1e-9
    assert probs[-1] == 1.0  # forced order: the deepest vertex splits last


def test_float_path_raises_instead_of_returning_nan():
    # at K = 2047 the float binomials overflow to inf and the walk would
    # return NaN; at K = 1023 they do not
    wide = parse_newick(balanced(2048))
    with pytest.raises(TreeError, match="not finite or not normalized"):
        rank_probabilities_float(wide, wide.children[0][0])
    narrower = parse_newick(balanced(1024))
    probs = rank_probabilities_float(narrower, narrower.children[0][0])
    assert all(math.isfinite(p) for p in probs)
    assert abs(math.fsum(probs) - 1) <= FLOAT_SUM_TOLERANCE


# ---------------------------------------------------------------------------
# top-down kernel against the bottom-up walk
# ---------------------------------------------------------------------------


@given(st.integers(0, 10**6), st.integers(2, 14), st.booleans())
@settings(max_examples=40, deadline=None)
def test_kernel_matches_bottom_up_walk(seed, n, binary):
    rng = random.Random(seed)
    tree = random_binary_tree(rng, n) if binary else random_tree(rng, n)
    total, laws = _order_counts(tree)
    laws = dict(laws)
    assert total == count_rank_functions(tree)
    assert sorted(laws) == list(tree.interior_vertices())
    for v, counts in laws.items():
        assert len(counts) == tree.interior_count + 1 and counts[0] == 0
        assert tuple(F(c, total) for c in counts[1:]) == rank_probabilities(tree, v).p


def test_kernel_targets_keep_root_paths(t5):
    full = dict(_order_counts(t5)[1])
    total, laws = _order_counts(t5, targets=(5,))
    laws = dict(laws)
    assert total == 3
    assert sorted(laws) == [0, 4, 5]
    assert all(laws[v] == full[v] for v in laws)
    assert sorted(dict(_order_counts(t5, targets=(1, 5))[1])) == [0, 1, 4, 5]


def test_kernel_rejects_inexact_quotient(t5, monkeypatch):
    # a wrong total (t5 has 3 orders) cannot be split evenly over the
    # positions of a child's subtree
    monkeypatch.setattr(ranks_module, "count_rank_functions", lambda tree: 4)
    _total, laws = _order_counts(t5)
    with pytest.raises(ArithmeticError):
        list(laws)


# ---------------------------------------------------------------------------
# joint law for nested pairs
# ---------------------------------------------------------------------------


def _interleave_weight_product(outside: int, block: int, position: int) -> int:
    """C(outside + block - position, block - 1) * (block - 1)!, written as a
    falling product over block - 1 factors."""
    acc = 1
    top = outside + block - position
    for k in range(block - 1):
        factor = top - k
        if factor <= 0:
            return 0
        acc *= factor
    return acc


def test_interleave_weight_matches_falling_product():
    choose = BinomialTable(32).choose
    for outside in range(16):
        for block in range(1, 17):
            for position in range(1, outside + block + 1):
                weight = _interleave_weight(outside, block, position, choose)
                assert weight * math.factorial(block - 1) == _interleave_weight_product(
                    outside, block, position
                )


def test_joint_golden_parent_child(t5):
    table = joint_rank_prob(t5, 4, 5)
    assert table.q == {(2, 3): F(1, 3), (2, 4): F(1, 3), (3, 4): F(1, 3)}


def test_joint_golden_root_pairs(t5):
    assert joint_rank_prob(t5, 0, 4).q == {(1, 2): F(2, 3), (1, 3): F(1, 3)}
    # the root/grandchild law is not uniform: rank 4 is twice as likely
    assert joint_rank_prob(t5, 0, 5).q == {(1, 3): F(1, 3), (1, 4): F(2, 3)}


def test_joint_marginals_match_single_vertex(t5, poly5):
    for tree in (t5, poly5):
        for u in tree.interior_vertices():
            for v in tree.interior_vertices():
                if not tree.is_strict_ancestor(u, v):
                    continue
                table = joint_rank_prob(tree, u, v)
                assert table.marginal_u() == dist_map(rank_probabilities(tree, u))
                assert table.marginal_v() == dist_map(rank_probabilities(tree, v))


def test_joint_orders_are_consistent(t5):
    for (u, v), table in (
        ((4, 5), joint_rank_prob(t5, 4, 5)),
        ((0, 5), joint_rank_prob(t5, 0, 5)),
    ):
        assert table.u == u and table.v == v
        assert all(i < j for i, j in table.q)
        assert sum(table.q.values()) == 1


def test_joint_brute_agreement_small_catalog():
    for tree in catalog(3, 6):
        for u in tree.interior_vertices():
            for v in tree.interior_vertices():
                if tree.is_strict_ancestor(u, v):
                    assert joint_rank_prob(tree, u, v).q == brute_joint(tree, u, v).q


def test_joint_requires_proper_ancestor(t5):
    with pytest.raises(TreeError):
        joint_rank_prob(t5, 5, 4)  # wrong way round
    with pytest.raises(TreeError):
        joint_rank_prob(t5, 1, 4)  # incomparable
    with pytest.raises(TreeError):
        joint_rank_prob(t5, 4, 4)  # same vertex
    with pytest.raises(TreeError):
        joint_rank_prob(t5, 4, t5.vertex("e"))  # leaf


# ---------------------------------------------------------------------------
# which of two vertices comes first
# ---------------------------------------------------------------------------


def test_compare_golden(t5):
    assert compare(t5, 1, 5) == F(2, 3)
    assert compare(t5, 5, 1) == F(1, 3)
    assert compare(t5, 1, 4) == F(1, 3)
    assert compare(t5, 4, 1) == F(2, 3)


def test_compare_nested_is_certain(t5):
    assert compare(t5, 0, 5) == 1
    assert compare(t5, 5, 0) == 0
    assert compare(t5, 4, 5) == 1


def test_compare_symmetric_tree(bal4):
    assert compare(bal4, 1, 4) == F(1, 2)


def test_compare_rejects_bad_input(t5):
    with pytest.raises(TreeError):
        compare(t5, 1, 1)
    with pytest.raises(TreeError):
        compare(t5, 1, t5.vertex("e"))


def test_compare_brute_agreement_small_catalog():
    for tree in catalog(2, 6):
        interior = tree.interior_vertices()
        for u in interior:
            for v in interior:
                if u != v:
                    assert compare(tree, u, v) == brute_compare(tree, u, v)


@given(st.integers(0, 10**6), st.integers(3, 9))
@settings(max_examples=30, deadline=None)
def test_compare_complementarity(seed, n):
    rng = random.Random(seed)
    tree = random_tree(rng, n)
    interior = tree.interior_vertices()
    if len(interior) < 2:
        return
    u, v = rng.sample(list(interior), 2)
    assert compare(tree, u, v) + compare(tree, v, u) == 1


def test_compare_consistent_with_joint(t5, poly5):
    # for nested pairs the precedence probability collapses to topology,
    # and the joint law must put all its mass on that side
    for tree in (t5, poly5):
        for u in tree.interior_vertices():
            for v in tree.interior_vertices():
                if tree.is_strict_ancestor(u, v):
                    table = joint_rank_prob(tree, u, v)
                    mass_before = sum(
                        prob for (i, j), prob in table.q.items() if i < j
                    )
                    assert compare(tree, u, v) == mass_before == 1
