"""Attack-finding algorithms: brute force, greedy, weighted greedy."""

from repro.search.base import SearchAlgorithm
from repro.search.brute import BruteForceSearch
from repro.search.greedy import GreedySearch
from repro.search.hunt import HuntResult, hunt
from repro.search.results import AttackFinding, SearchReport
from repro.search.weighted import (DEFAULT_WEIGHTS, ClusterWeights,
                                   WeightedGreedySearch)

#: the algorithms by their CLI/executor name (paper Fig. 2 (c), (b), (a))
ALGORITHMS = {"weighted": WeightedGreedySearch, "greedy": GreedySearch,
              "brute": BruteForceSearch}

__all__ = [
    "ALGORITHMS", "SearchAlgorithm", "BruteForceSearch",
    "GreedySearch", "HuntResult", "hunt", "AttackFinding", "SearchReport",
    "DEFAULT_WEIGHTS", "ClusterWeights", "WeightedGreedySearch",
]
