"""WARLOCK advisor core (prediction layer, §3.2).

The advisor glues the substrates together: it enumerates fragmentation
candidates, excludes candidates by thresholds, evaluates the survivors with the
analytical I/O model, ranks them with the twofold heuristic (overall I/O cost
first, response time among the leading X%), and packages the top candidates —
each with its bitmap scheme, prefetch suggestion and disk allocation — into a
recommendation.
"""

from repro.core.config import AdvisorConfig
from repro.core.thresholds import ExclusionReport, evaluate_thresholds
from repro.core.candidates import FragmentationCandidate
from repro.core.ranking import (
    RankedCandidate,
    rank_candidates,
    rank_candidates_columnar,
)
from repro.core.advisor import Recommendation

__all__ = [
    "AdvisorConfig",
    "ExclusionReport",
    "evaluate_thresholds",
    "FragmentationCandidate",
    "RankedCandidate",
    "rank_candidates",
    "rank_candidates_columnar",
    "Recommendation",
]
