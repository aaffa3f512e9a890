import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rankdate import (
    BinomialTable,
    TreeError,
    binomial_table_for,
    count_rank_functions,
    parse_newick,
    yule_ranked_prob,
    yule_topology_prob,
)
from rankdate.oracle import enumerate_rank_functions
from treegen import caterpillar, catalog, random_binary_tree


def test_binomial_table_matches_math_comb():
    table = BinomialTable(12)
    for n in range(13):
        for k in range(-2, 15):
            assert table.choose(n, k) == (math.comb(n, k) if 0 <= k <= n else 0)


def test_binomial_table_bounds():
    table = BinomialTable(4)
    assert table.size == 4
    with pytest.raises(ValueError):
        table.choose(5, 2)
    with pytest.raises(ValueError):
        table.choose(-1, 0)


def test_binomial_table_float_flavor():
    table = BinomialTable(30, one=1.0)
    assert isinstance(table.choose(30, 15), float)
    assert table.choose(30, 15) == float(math.comb(30, 15))
    assert table.choose(10, -3) == 0.0


def test_binomial_table_for_is_cached(t5):
    assert binomial_table_for(t5) is binomial_table_for(t5)
    assert binomial_table_for(t5, exact=False) is binomial_table_for(t5, exact=False)
    assert binomial_table_for(t5) is not binomial_table_for(t5, exact=False)
    assert binomial_table_for(t5).size == t5.interior_count + 1


@pytest.mark.parametrize(
    "text,expect",
    [
        ("((a,b),((c,d),e));", 3),
        ("(((a,b),c),d);", 1),
        ("((a,b),(c,d));", 2),
        ("(a,b,c);", 1),
        ("((a,b),c,d);", 1),
        ("((a,b),(c,d),(e,f));", 6),
        ("((a,b),(c,d,e));", 2),
        ("(a,b);", 1),
    ],
)
def test_count_golden(text, expect):
    assert count_rank_functions(parse_newick(text)) == expect


def test_count_requires_interior_vertex():
    with pytest.raises(TreeError):
        count_rank_functions(parse_newick("a;"))


def test_count_rejects_inconsistent_subtree_sizes(t5):
    # t5's subtree sizes 4, 1, 2, 1 divide 4! = 24 into 3 orders; with 5 in
    # place of one 1 their product 40 does not divide 24
    sizes = list(t5.interior_below)
    sizes[1] = 5
    bogus = dataclasses.replace(t5, interior_below=tuple(sizes))
    with pytest.raises(ArithmeticError):
        count_rank_functions(bogus)


def test_count_caterpillar_is_one():
    assert count_rank_functions(parse_newick(caterpillar(30))) == 1


def test_count_matches_enumeration_small():
    for tree in catalog(2, 6):
        assert count_rank_functions(tree) == sum(
            1 for _ in enumerate_rank_functions(tree)
        )


def test_yule_ranked_prob_golden(bal4, cat4, t5):
    assert yule_ranked_prob(bal4) == Fraction(1, 2)
    assert yule_ranked_prob(cat4) == Fraction(1)
    assert yule_ranked_prob(t5) == Fraction(1, 3)


def test_yule_ranked_prob_is_inverse_count():
    rng = random.Random(11)
    for _ in range(25):
        tree = random_binary_tree(rng, rng.randint(2, 24))
        assert yule_ranked_prob(tree) * count_rank_functions(tree) == 1


def test_yule_ranked_prob_needs_binary(star3):
    with pytest.raises(TreeError):
        yule_ranked_prob(star3)


@pytest.mark.parametrize(
    "text,expect",
    [
        ("((a,b),c);", Fraction(1, 3)),
        ("(((a,b),c),d);", Fraction(1, 18)),
        ("((a,b),(c,d));", Fraction(1, 9)),
        ("(a,b);", Fraction(1)),
    ],
)
def test_yule_topology_prob_golden(text, expect):
    assert yule_topology_prob(parse_newick(text)) == expect


def test_yule_topology_prob_needs_binary_and_labels(poly5):
    with pytest.raises(TreeError):
        yule_topology_prob(poly5)
    from rankdate import PhyloTree

    unlabeled = PhyloTree.from_structure((None, ((None, ()), ("b", ()))))
    with pytest.raises(TreeError):
        yule_topology_prob(unlabeled)


@given(st.integers(0, 10**6), st.integers(2, 16))
@settings(max_examples=30, deadline=None)
def test_ranked_prob_in_unit_interval(seed, n):
    tree = random_binary_tree(random.Random(seed), n)
    p = yule_ranked_prob(tree)
    q = yule_topology_prob(tree)
    assert 0 < p <= 1
    assert 0 < q <= 1
