import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import rankdate.timing as timing_module
from rankdate import (
    ResolutionLimitError,
    TimingModel,
    TreeError,
    date_tree,
    expected_waiting_sum,
    interior_edge_length,
    joint_rank_prob,
    parse_newick,
    pendant_edge_length,
    polytomy_edge_length,
    polytomy_edge_lengths,
    rank_probabilities,
    resolve_polytomies,
    write_newick,
    yule_topology_prob,
)
from rankdate.oracle import sample_rank_function, sample_yule_times
from treegen import caterpillar, random_binary_tree, random_tree, star

F = Fraction
YULE = TimingModel.YULE
COAL = TimingModel.COALESCENT


# ---------------------------------------------------------------------------
# waiting-time sums
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "i,j,model,expect",
    [
        (2, 3, YULE, F(1, 3)),
        (2, 4, YULE, F(7, 12)),
        (1, 2, YULE, F(1, 2)),
        (2, 4, COAL, F(1, 4)),
        (3, 4, COAL, F(1, 12)),
        (1, 2, COAL, F(1, 2)),
    ],
)
def test_waiting_sum_golden(i, j, model, expect):
    assert expected_waiting_sum(i, j, model) == expect


def test_waiting_sum_coalescent_telescopes():
    for i in range(1, 20):
        for j in range(i + 1, 21):
            assert expected_waiting_sum(i, j, COAL) == F(1, i) - F(1, j)


def test_waiting_sum_yule_additive():
    for i in range(1, 12):
        for j in range(i + 1, 13):
            total = sum((F(1, k) for k in range(i + 1, j + 1)), F(0))
            assert expected_waiting_sum(i, j, YULE) == total


@pytest.mark.parametrize("i,j", [(0, 2), (3, 3), (4, 2), (-1, 5)])
def test_waiting_sum_rejects_bad_ranks(i, j):
    with pytest.raises(TreeError):
        expected_waiting_sum(i, j, YULE)


# ---------------------------------------------------------------------------
# expected edge lengths on binary trees
# ---------------------------------------------------------------------------


def test_interior_edge_golden(t5):
    assert interior_edge_length(t5, 4, 5, YULE) == F(7, 18)
    assert interior_edge_length(t5, 4, 5, COAL) == F(1, 6)
    assert interior_edge_length(t5, 0, 4, YULE) == F(11, 18)
    assert interior_edge_length(t5, 0, 1, YULE) == F(29, 36)
    assert interior_edge_length(t5, 0, 1, COAL) == F(23, 36)
    assert interior_edge_length(t5, 0, 4, COAL) == F(5, 9)


def test_interior_edge_argument_checks(t5, poly5):
    with pytest.raises(TreeError):
        interior_edge_length(t5, 0, 5, YULE)  # not parent/child
    with pytest.raises(TreeError):
        interior_edge_length(t5, 1, t5.vertex("a"), YULE)  # leaf below
    with pytest.raises(TreeError):
        interior_edge_length(poly5, 0, 1, YULE)  # multifurcation present


def test_pendant_golden(t5, cat4):
    assert pendant_edge_length(t5, 4) == F(17, 36)
    assert pendant_edge_length(t5, 1) == F(5, 18)
    assert pendant_edge_length(t5, 5) == F(1, 12)
    assert pendant_edge_length(cat4, cat4.root) == F(5, 6)


def test_pendant_argument_checks(t5, poly5):
    with pytest.raises(TreeError):
        pendant_edge_length(t5, t5.root)  # both children interior
    with pytest.raises(TreeError):
        pendant_edge_length(t5, t5.vertex("e"))  # leaf argument
    with pytest.raises(TreeError):
        pendant_edge_length(poly5, 1)  # multifurcation present


def test_date_tree_t5_yule_full(t5):
    report = date_tree(t5, YULE, include_pendant=True)
    assert report.model is YULE
    assert report.interior == {
        (0, 1): F(29, 36),
        (0, 4): F(11, 18),
        (4, 5): F(7, 18),
    }
    assert report.pendant == {
        (1, 2): F(5, 18),
        (1, 3): F(5, 18),
        (5, 6): F(1, 12),
        (5, 7): F(1, 12),
        (4, 8): F(17, 36),
    }
    assert set(report.leaf_depths.values()) == {F(13, 12)}
    merged = report.edge_lengths()
    assert set(merged) == set(t5.edges())


def test_date_tree_cat4_newick_golden(cat4):
    report = date_tree(cat4, YULE, include_pendant=True)
    assert report.interior == {(0, 1): F(1, 2), (1, 2): F(1, 3)}
    assert report.pendant == {
        (2, cat4.vertex("a")): F(0),
        (2, cat4.vertex("b")): F(0),
        (1, cat4.vertex("c")): F(1, 3),
        (0, cat4.vertex("d")): F(5, 6),
    }
    assert set(report.leaf_depths.values()) == {F(5, 6)}
    text = write_newick(cat4, report)
    assert text == "(((a:0,b:0):0.333333,c:0.333333):0.5,d:0.833333);"


def test_date_tree_without_pendant(t5):
    report = date_tree(t5, COAL)
    assert report.pendant == {}
    assert report.leaf_depths == {}
    assert report.interior[(4, 5)] == F(1, 6)
    with pytest.raises(TreeError):
        write_newick(t5, report)  # pendant edges are uncovered
    partial = write_newick(t5, report, allow_partial=True)
    assert partial == "((a,b):0.638889,((c,d):0.166667,e):0.555556);"


def test_date_tree_rejects_coalescent_pendant(t5):
    with pytest.raises(TreeError):
        date_tree(t5, COAL, include_pendant=True)


def test_date_tree_rejects_multifurcations(poly5):
    with pytest.raises(TreeError):
        date_tree(poly5, YULE)


def test_caterpillar_consecutive_gap_laws():
    tree = parse_newick(caterpillar(8))
    report_y = date_tree(tree, YULE)
    report_c = date_tree(tree, COAL)
    for (u, v), value in report_y.interior.items():
        i = tree.depth[u] + 1  # forced ranks follow depth
        assert value == F(1, i + 1)
    for (u, v), value in report_c.interior.items():
        i = tree.depth[u] + 1
        assert value == F(1, i * (i + 1))


@given(st.integers(0, 10**6), st.integers(3, 16))
@settings(max_examples=20, deadline=None)
def test_molecular_clock_random_trees(seed, n):
    tree = random_binary_tree(random.Random(seed), n)
    report = date_tree(tree, YULE, include_pendant=True)
    depths = set(report.leaf_depths.values())
    assert len(depths) == 1
    expected = sum((F(1, k + 1) for k in range(1, n - 1)), F(0))
    assert depths.pop() == expected


def test_date_tree_lone_leaf_has_no_edges():
    report = date_tree(parse_newick("a;"), YULE, include_pendant=True)
    assert (report.interior, report.pendant, report.leaf_depths) == ({}, {}, {})


def _joint_route(tree, p, c, model):
    """The expected gap sum over the joint law of the edge's endpoint ranks."""
    return sum(
        (prob * expected_waiting_sum(i, j, model) for (i, j), prob in joint_rank_prob(tree, p, c).q.items()),
        F(0),
    )


@given(st.integers(0, 10**6), st.integers(2, 14))
@settings(max_examples=25, deadline=None)
def test_date_tree_matches_walks(seed, n):
    tree = random_binary_tree(random.Random(seed), n)
    edges = [(p, c) for p, c in tree.edges() if tree.children[c]]
    for model in (YULE, COAL):
        report = date_tree(tree, model)
        assert list(report.interior) == edges
        for (p, c), value in report.interior.items():
            assert value == _joint_route(tree, p, c, model)
            assert interior_edge_length(tree, p, c, model) == value
    # pendant: the Yule time from the parent's split to the last one, over
    # the parent's rank law from the bottom-up walk
    last = tree.interior_count
    for (p, _leaf), value in date_tree(tree, YULE, include_pendant=True).pendant.items():
        tail = sum(
            (prob * expected_waiting_sum(r, last, YULE)
             for r, prob in rank_probabilities(tree, p).support() if r < last),
            F(0),
        )
        assert value == tail == pendant_edge_length(tree, p)


# ---------------------------------------------------------------------------
# multifurcation refinement
# ---------------------------------------------------------------------------


def test_resolve_star3_golden(star3):
    rs = resolve_polytomies(star3)
    assert rs.source is star3
    texts = [write_newick(r.tree) for r in rs.resolutions]
    assert texts == ["((c,b),a);", "(c,(b,a));", "(b,(c,a));"]
    assert [r.weight for r in rs.resolutions] == [F(1, 3)] * 3
    assert rs.total_weight == 1
    for r in rs.resolutions:
        assert r.tree.is_binary()
        assert r.weight == yule_topology_prob(r.tree)
        for v in range(star3.vertex_count):
            if star3.is_leaf(v):
                assert r.tree.labels[r.vertex_map[v]] == star3.labels[v]
        assert r.vertex_map[star3.root] == r.tree.root


def test_resolve_star4_complete():
    rs = resolve_polytomies(parse_newick(star(4)))
    assert len(rs.resolutions) == 15
    assert rs.total_weight == 1  # every labeled topology appears exactly once


def test_resolve_poly5(poly5):
    rs = resolve_polytomies(poly5)
    assert len(rs.resolutions) == 3
    # each refinement is the same 5-leaf shape, so equal weights
    assert {r.weight for r in rs.resolutions} == {F(1, 60)}
    assert rs.total_weight == F(1, 20)


def test_resolve_rejects_binary(t5):
    with pytest.raises(TreeError):
        resolve_polytomies(t5)


def test_resolution_cap():
    nine = parse_newick(star(9))
    with pytest.raises(ResolutionLimitError) as err:
        resolve_polytomies(nine, max_resolutions=100)
    assert err.value.count == 2027025
    assert err.value.limit == 100
    assert "2027025" in str(err.value)
    # the cap is inclusive
    four = parse_newick(star(4))
    assert len(resolve_polytomies(four, max_resolutions=15).resolutions) == 15
    with pytest.raises(ResolutionLimitError):
        resolve_polytomies(four, max_resolutions=14)


def test_polytomy_edge_golden(poly5):
    assert polytomy_edge_length(poly5, 0, 4, YULE) == F(11, 18)
    assert polytomy_edge_length(poly5, 0, 1, YULE) == F(29, 36)
    assert polytomy_edge_length(poly5, 0, 4, COAL) == F(5, 9)
    assert polytomy_edge_length(poly5, 0, 1, COAL) == F(23, 36)


def test_polytomy_edge_multi_step_paths():
    # resolving the root trifurcation can push the cherry two edges below
    # the root, so the averaged value mixes one- and two-edge paths
    tree = parse_newick("((a,b),c,d);")
    assert polytomy_edge_length(tree, 0, 1, YULE) == F(3, 4)
    assert polytomy_edge_length(tree, 0, 1, COAL) == F(5, 8)


def test_polytomy_edge_equals_plain_on_binary(t5):
    for u, v in t5.edges():
        if t5.is_leaf(v):
            continue
        for model in (YULE, COAL):
            assert polytomy_edge_length(t5, u, v, model) == interior_edge_length(
                t5, u, v, model
            )


def test_polytomy_edge_argument_checks(poly5):
    with pytest.raises(TreeError):
        polytomy_edge_length(poly5, 0, poly5.vertex("a"), YULE)  # pendant edge
    with pytest.raises(TreeError):
        polytomy_edge_length(poly5, 1, 4, YULE)  # not parent/child
    with pytest.raises(ResolutionLimitError):
        tree = parse_newick("((a,b),c,d,e,f,g,h,i,j);")
        polytomy_edge_length(tree, 0, 1, YULE, max_resolutions=10)


def test_polytomy_matches_hand_average(poly5):
    rs = resolve_polytomies(poly5)
    total = F(0)
    for r in rs.resolutions:
        top, bottom = r.vertex_map[0], r.vertex_map[4]
        length = F(0)
        v = bottom
        while v != top:
            p = r.tree.parent[v]
            length += interior_edge_length(r.tree, p, v, YULE)
            v = p
        total += r.weight * length
    assert polytomy_edge_length(poly5, 0, 4, YULE) == total / rs.total_weight


def test_resolve_rejects_a_wrong_count(poly5, monkeypatch):
    # the closed-form count and the enumeration must agree
    monkeypatch.setattr(timing_module, "_double_factorial_odd", lambda d: 4)
    with pytest.raises(RuntimeError):
        resolve_polytomies(poly5)


def _weighted_joint_route(refinements, u, v, model):
    """Topology-weighted average of the joint-route path lengths."""
    total = F(0)
    for r in refinements.resolutions:
        top, w = r.vertex_map[u], r.vertex_map[v]
        length = F(0)
        while w != top:
            p = r.tree.parent[w]
            length += _joint_route(r.tree, p, w, model)
            w = p
        total += r.weight * length
    return total / refinements.total_weight


@given(st.integers(0, 10**6), st.integers(3, 14), st.sampled_from([YULE, COAL]))
@settings(max_examples=25, deadline=None)
def test_polytomy_edge_lengths_match_weighted_joint_route(seed, n, model):
    tree = random_tree(random.Random(seed), n)
    try:
        lengths = polytomy_edge_lengths(tree, model, max_resolutions=45)
    except ResolutionLimitError:
        return
    edges = [(p, c) for p, c in tree.edges() if tree.children[c]]
    assert list(lengths) == edges
    refinements = None if tree.is_binary() else resolve_polytomies(tree)
    for (u, v), value in lengths.items():
        assert polytomy_edge_length(tree, u, v, model) == value
        if refinements is None:
            assert value == _joint_route(tree, u, v, model)
        else:
            assert value == _weighted_joint_route(refinements, u, v, model)


# ---------------------------------------------------------------------------
# Monte Carlo agreement
# ---------------------------------------------------------------------------


def test_edge_length_matches_simulation(t5):
    draws = 30_000
    acc = 0.0
    for k in range(draws):
        rank = sample_rank_function(t5, seed=k)
        times = sample_yule_times(t5, rank, seed=10**9 + k)
        acc += times[(4, 5)]
    mean = acc / draws
    expected = float(interior_edge_length(t5, 4, 5, YULE))
    assert abs(mean - expected) < 0.01
