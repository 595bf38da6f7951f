"""Typed results the session returns — every one directly servable.

Each request type of :mod:`repro.api.requests` has a result wrapper here.
The wrappers keep the rich library objects (the
:class:`~repro.core.Recommendation`, the evaluated candidates, the
:class:`~repro.tuning.TuningStudy`) for programmatic callers, and add the two
things a serving front end needs: a stable ``to_dict()`` (JSON-ready, built on
the exporters of :mod:`repro.io`) and, for recommendations, the content
``fingerprint`` that proves result parity across sessions, deltas, cost
paths and cache states.

A :class:`RecommendResult` also keeps the JSON text of its ``to_dict()``
(:attr:`RecommendResult.json_text`) once built.  The cache's answer memo
hands a repeated ``recommend()`` the same result object, so the service
encodes a memoized answer, and computes its fingerprint, once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, Optional, Tuple

from repro.core.advisor import Recommendation
from repro.core.candidates import FragmentationCandidate
from repro.simulation.simulator import WorkloadSimulationResult
from repro.tuning import TuningStudy

__all__ = [
    "RecommendResult",
    "EvaluateSpecResult",
    "CompareResult",
    "TuneResult",
    "SimulateResult",
]


@dataclass(frozen=True)
class RecommendResult:
    """A ranked recommendation plus its parity fingerprint."""

    recommendation: Recommendation

    @property
    def best(self) -> FragmentationCandidate:
        """The top-ranked fragmentation candidate."""
        return self.recommendation.best

    @cached_property
    def fingerprint(self) -> str:
        """Content fingerprint of the full recommendation (parity checks)."""
        from repro.engine import recommendation_fingerprint

        return recommendation_fingerprint(self.recommendation)

    def to_dict(self, include_all_candidates: bool = False) -> Dict[str, Any]:
        payload = self.recommendation.to_dict(
            include_all_candidates=include_all_candidates
        )
        payload["fingerprint"] = self.fingerprint
        return payload

    @cached_property
    def json_text(self) -> str:
        """``json.dumps(self.to_dict())``, encoded on first read and kept."""
        return json.dumps(self.to_dict())

    def describe(self) -> str:
        return self.recommendation.describe()


@dataclass(frozen=True)
class EvaluateSpecResult:
    """One fully evaluated fragmentation candidate."""

    candidate: FragmentationCandidate

    def to_dict(self, include_allocation: bool = False) -> Dict[str, Any]:
        return self.candidate.to_dict(include_allocation=include_allocation)


@dataclass(frozen=True)
class CompareResult:
    """A side-by-side comparison of evaluated candidates.

    ``candidates`` preserves request order; ``baseline`` is the extra
    candidate the ratio columns divide by (when the request named one).
    """

    candidates: Tuple[FragmentationCandidate, ...]
    baseline: Optional[FragmentationCandidate]
    table: str

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "candidates": [candidate.summary() for candidate in self.candidates],
            "table": self.table,
        }
        if self.baseline is not None:
            payload["baseline"] = self.baseline.summary()
        return payload

    def describe(self) -> str:
        return self.table


@dataclass(frozen=True)
class TuneResult:
    """Outcome of one what-if study."""

    study: TuningStudy

    def to_dict(self) -> Dict[str, Any]:
        return self.study.to_dict()

    def describe(self) -> str:
        return self.study.format()


@dataclass(frozen=True)
class SimulateResult:
    """A simulated workload replay next to the analytical prediction."""

    candidate_label: str
    simulation: WorkloadSimulationResult
    predicted_io_cost_ms: float
    predicted_response_time_ms: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "fragmentation": self.candidate_label,
            "simulation": self.simulation.to_dict(),
            "predicted": {
                "io_cost_ms": self.predicted_io_cost_ms,
                "response_time_ms": self.predicted_response_time_ms,
            },
        }

    def describe(self) -> str:
        return (
            self.simulation.describe()
            + f"\nAnalytical prediction: response "
            f"{self.predicted_response_time_ms:,.1f} ms, "
            f"I/O cost {self.predicted_io_cost_ms:,.1f} ms"
        )
