"""The advisor's output: input layer -> prediction layer -> recommendation.

A :class:`Recommendation` is what the advisor pipeline produces from the
three input blocks of the paper's input layer — the star schema, the DBS &
disk parameters and the weighted star query mix: the ranked list of
fragmentation candidates, each complete with bitmap scheme, prefetch
suggestion, disk allocation and per-query-class cost prediction.  The
pipeline itself runs in :class:`repro.api.AdvisorSession`, which owns the
compiled inputs, the evaluation engine and the shared cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

from repro.core.candidates import FragmentationCandidate
from repro.core.config import AdvisorConfig
from repro.core.ranking import RankedCandidate
from repro.core.thresholds import ExclusionReport
from repro.errors import AdvisorError
from repro.schema import StarSchema
from repro.storage import SystemParameters
from repro.workload import QueryMix

__all__ = ["Recommendation"]

#: Per-kind entry bound of the advisor's default evaluation cache.  A
#: structure entry holds one layout's planes for every class (about 8 KB on a
#: 40-class workload, so 2048 of them take about 16 MB); candidate entries
#: carry per-fragment arrays, so the bound keeps a long-lived advisor's
#: footprint at worst tens of MB while still covering several full sweeps.
DEFAULT_CACHE_ENTRIES = 2048


@dataclass(frozen=True)
class Recommendation:
    """The advisor's output: ranked candidates plus provenance."""

    ranked: Tuple[RankedCandidate, ...]
    evaluated: Tuple[FragmentationCandidate, ...]
    exclusion_report: ExclusionReport
    config: AdvisorConfig
    schema: StarSchema
    workload: QueryMix
    system: SystemParameters

    @property
    def best(self) -> FragmentationCandidate:
        """The top-ranked fragmentation candidate."""
        if not self.ranked:
            raise AdvisorError("the recommendation contains no ranked candidates")
        return self.ranked[0].candidate

    def candidate(self, label: str) -> FragmentationCandidate:
        """Look up an evaluated candidate by its fragmentation label."""
        for candidate in self.evaluated:
            if candidate.label == label:
                return candidate
        raise AdvisorError(f"no evaluated candidate labelled {label!r}")

    def describe(self) -> str:
        """Compact multi-line summary of the ranked list."""
        lines = [
            f"WARLOCK recommendation for schema {self.schema.name!r} "
            f"({self.system.describe()})",
            self.exclusion_report.describe().splitlines()[0],
            f"Top {len(self.ranked)} fragmentations "
            f"(leading {self.config.top_fraction:.0%} by I/O cost, ranked by "
            f"response time):",
        ]
        lines.extend(f"  {ranked.describe()}" for ranked in self.ranked)
        return "\n".join(lines)

    def to_dict(
        self,
        include_all_candidates: bool = False,
        include_query_statistics: bool = True,
    ) -> Dict[str, Any]:
        """Stable plain-dict form (see :func:`repro.io.recommendation_to_dict`)."""
        # Imported lazily: repro.io builds on the analysis layer, which the
        # core must not depend on at import time.
        from repro.io import recommendation_to_dict

        return recommendation_to_dict(
            self,
            include_all_candidates=include_all_candidates,
            include_query_statistics=include_query_statistics,
        )
