"""Exact counting utilities for ranked trees.

Everything here is integer or rational arithmetic; a parallel float-valued
binomial table exists solely so that large-tree benchmarking does not pay
big-integer costs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from weakref import WeakKeyDictionary

from .tree import PhyloTree, TreeError


class BinomialTable:
    """Triangular cache of C(n, k) for all 0 <= k <= n <= size.

    Built once with the additive recurrence and then read-only; lookups are
    O(1) and return 0 for k outside [0, n].  Pass ``one=1.0`` to get a
    float-valued table instead of exact integers.
    """

    __slots__ = ("_rows", "one")

    def __init__(self, size: int, one=1):
        if size < 0:
            raise ValueError("table size must be non-negative")
        self.one = one
        rows = [[one]]
        for n in range(1, size + 1):
            prev = rows[-1]
            row = [one] * (n + 1)
            for k in range(1, n):
                row[k] = prev[k - 1] + prev[k]
            rows.append(row)
        self._rows = rows

    @property
    def size(self) -> int:
        return len(self._rows) - 1

    def choose(self, n: int, k: int):
        if n < 0 or n > self.size:
            raise ValueError(f"C({n}, {k}) outside table sized {self.size}")
        if k < 0 or k > n:
            return self.one * 0
        return self._rows[n][k]


_EXACT_TABLES: WeakKeyDictionary = WeakKeyDictionary()
_FLOAT_TABLES: WeakKeyDictionary = WeakKeyDictionary()


def binomial_table_for(tree: PhyloTree, *, exact: bool = True) -> BinomialTable:
    """The shared per-tree table, sized interior_count + 1."""
    cache = _EXACT_TABLES if exact else _FLOAT_TABLES
    table = cache.get(tree)
    if table is None:
        table = BinomialTable(tree.interior_count + 1, 1 if exact else 1.0)
        cache[tree] = table
    return table


def count_rank_functions(tree: PhyloTree) -> int:
    """Number of possible orders of the interior vertices of the tree.

    An order is admissible when every interior vertex comes after its
    ancestors; the count is |V|! divided by the product over interior
    vertices of the interior-subtree sizes.  For binary trees the divisor at
    each vertex equals (leaves below - 1); the subtree-size form is the one
    that stays valid for multifurcating trees.
    """
    k = tree.interior_count
    if k == 0:
        raise TreeError("tree has no interior vertex")
    numerator = math.factorial(k)
    denominator = math.prod(tree.interior_below[v] for v in tree.interior_vertices())
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise ArithmeticError("order count is not an integer")
    return quotient


def yule_ranked_prob(tree: PhyloTree) -> Fraction:
    """Probability of one particular ranked labeled binary tree under Yule.

    Equals the product over interior vertices of (leaves below - 1), divided
    by (n - 1)!.  Multiplied by the number of admissible orders this gives 1:
    conditioned on the topology, every order is equally likely.
    """
    _require_binary(tree)
    n = tree.leaf_count
    num = math.prod(tree.leaves_below[v] - 1 for v in tree.interior_vertices())
    return Fraction(num, math.factorial(n - 1))


def yule_topology_prob(tree: PhyloTree) -> Fraction:
    """Probability of a labeled binary topology (orders summed out) under Yule:
    2^(n-1) / (n! * prod over interior vertices of (leaves below - 1))."""
    _require_binary(tree)
    for v in tree.leaves():
        if tree.labels[v] is None:
            raise TreeError("topology probability needs labeled leaves")
    n = tree.leaf_count
    den = math.factorial(n) * math.prod(
        tree.leaves_below[v] - 1 for v in tree.interior_vertices()
    )
    return Fraction(2 ** (n - 1), den)


def _require_binary(tree: PhyloTree) -> None:
    if not tree.is_binary():
        raise TreeError("operation requires a binary tree")
