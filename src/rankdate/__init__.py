"""Order statistics and expected branch lengths for ranked phylogenetic trees.

A ranked tree pairs a rooted tree shape with one of the admissible orders of
its interior vertices (ancestors first).  Treating every admissible order as
equally likely, this package computes -- exactly, in rational arithmetic --

* how many orders a tree admits (:func:`count_rank_functions`),
* the probability that a given interior vertex occupies each position
  (:func:`rank_probabilities`) and joint laws for nested pairs
  (:func:`joint_rank_prob`),
* the probability that one vertex precedes another (:func:`compare`),
* expected edge lengths once positions are given birth (Yule) or coalescent
  waiting times (:func:`date_tree`), including averages over all binary
  refinements of multifurcating trees (:func:`polytomy_edge_lengths`),
* uniform samples of admissible orders (:func:`sample_rank_function`).

Trees are parsed from Newick text (:func:`parse_newick`) into the immutable
:class:`PhyloTree`.  The :mod:`rankdate.oracle` module holds brute-force
enumeration counterparts used to cross-check the closed forms.
"""

from .combinat import (
    BinomialTable,
    binomial_table_for,
    count_rank_functions,
    yule_ranked_prob,
    yule_topology_prob,
)
from .oracle import (
    RankFunction,
    SplitMix64,
    brute_compare,
    brute_joint,
    brute_rank_probabilities,
    enumerate_rank_functions,
    sample_rank_function,
    sample_rank_functions,
    sample_yule_times,
)
from .ranks import (
    JointRankTable,
    PlacementCountTable,
    RankDistribution,
    RankSummary,
    compare,
    joint_rank_prob,
    placement_counts,
    rank_moments,
    rank_probabilities,
    rank_probabilities_float,
)
from .timing import (
    EdgeLengthReport,
    Resolution,
    ResolutionLimitError,
    ResolutionSet,
    TimingModel,
    date_tree,
    expected_waiting_sum,
    interior_edge_length,
    pendant_edge_length,
    polytomy_edge_length,
    polytomy_edge_lengths,
    resolve_polytomies,
)
from .tree import (
    NewickParseError,
    PhyloTree,
    TreeError,
    decimal_string,
    extract_subtree,
    parse_newick,
    prune_below,
    write_newick,
)

__version__ = "0.1.0"

__all__ = [
    "BinomialTable",
    "EdgeLengthReport",
    "JointRankTable",
    "NewickParseError",
    "PhyloTree",
    "PlacementCountTable",
    "RankDistribution",
    "RankFunction",
    "RankSummary",
    "Resolution",
    "ResolutionLimitError",
    "ResolutionSet",
    "SplitMix64",
    "TimingModel",
    "TreeError",
    "__version__",
    "binomial_table_for",
    "brute_compare",
    "brute_joint",
    "brute_rank_probabilities",
    "compare",
    "count_rank_functions",
    "date_tree",
    "decimal_string",
    "enumerate_rank_functions",
    "expected_waiting_sum",
    "extract_subtree",
    "interior_edge_length",
    "joint_rank_prob",
    "parse_newick",
    "pendant_edge_length",
    "placement_counts",
    "polytomy_edge_length",
    "polytomy_edge_lengths",
    "prune_below",
    "rank_moments",
    "rank_probabilities",
    "rank_probabilities_float",
    "resolve_polytomies",
    "sample_rank_function",
    "sample_rank_functions",
    "sample_yule_times",
    "write_newick",
    "yule_ranked_prob",
    "yule_topology_prob",
]
