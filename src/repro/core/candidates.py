"""Fragmentation candidates.

A :class:`FragmentationCandidate` bundles everything the advisor knows about
one fragmentation: its materialized layout, the bitmap scheme designed for it,
the prefetch granules, the analytical evaluation over the query mix and the
physical disk allocation.  The analysis/output layer renders these objects; the
ranking orders them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Dict

from repro.allocation import Allocation
from repro.bitmap import BitmapScheme
from repro.costmodel import WorkloadEvaluation
from repro.fragmentation import FragmentationLayout, FragmentationSpec
from repro.storage import PrefetchSetting

__all__ = ["FragmentationCandidate"]


@dataclass(frozen=True)
class FragmentationCandidate:
    """One fully evaluated fragmentation candidate."""

    spec: FragmentationSpec
    layout: FragmentationLayout
    bitmap_scheme: BitmapScheme
    prefetch: PrefetchSetting
    evaluation: WorkloadEvaluation
    allocation: Allocation

    # -- headline metrics --------------------------------------------------------

    @property
    def label(self) -> str:
        """Human-readable identifier of the fragmentation."""
        return self.spec.label

    @property
    def fragment_count(self) -> int:
        """Number of fragments the candidate induces."""
        return self.layout.fragment_count

    @property
    def io_cost_ms(self) -> float:
        """Workload-weighted I/O access cost (device busy time, milliseconds)."""
        return self.evaluation.total_io_cost_ms

    @property
    def response_time_ms(self) -> float:
        """Workload-weighted I/O response time (milliseconds)."""
        return self.evaluation.total_response_time_ms

    @property
    def pages_accessed(self) -> float:
        """Workload-weighted pages read per query."""
        return self.evaluation.total_pages_accessed

    @property
    def io_requests(self) -> float:
        """Workload-weighted disk requests per query."""
        return self.evaluation.total_io_requests

    @property
    def bitmap_storage_pages(self) -> int:
        """Total pages occupied by the candidate's bitmap indexes."""
        return self.bitmap_scheme.storage_pages(
            self.layout.fact.row_count, self.layout.page_size_bytes
        )

    # -- serialization helpers ------------------------------------------------------

    def summary(self) -> Dict[str, float]:
        """Flat summary dict used by reports, comparisons and the CLI."""
        return {
            "fragmentation": self.label,
            "dimensionality": self.spec.dimensionality,
            "fragments": self.fragment_count,
            "avg_fragment_pages": self.layout.average_fragment_pages,
            "io_cost_ms": self.io_cost_ms,
            "response_time_ms": self.response_time_ms,
            "pages_accessed": self.pages_accessed,
            "io_requests": self.io_requests,
            "bitmap_pages": self.bitmap_storage_pages,
            "allocation_scheme": self.allocation.scheme,
            "occupancy_cv": self.allocation.occupancy_cv,
            "prefetch_fact_pages": self.prefetch.fact_pages,
            "prefetch_bitmap_pages": self.prefetch.bitmap_pages,
        }

    def describe(self) -> str:
        """One-line summary used in the ranked list."""
        return (
            f"{self.label}: {self.fragment_count:,} fragments, "
            f"I/O cost {self.io_cost_ms:,.0f} ms, response "
            f"{self.response_time_ms:,.0f} ms, "
            f"{self.allocation.scheme} allocation"
        )

    def to_dict(self, include_allocation: bool = False) -> Dict[str, object]:
        """Stable plain-dict form (see :func:`repro.io.candidate_to_dict`)."""
        # Imported lazily: repro.io builds on the analysis layer, which the
        # core must not depend on at import time.
        from repro.io import candidate_to_dict

        return candidate_to_dict(self, include_allocation=include_allocation)

    @cached_property
    def json_text(self) -> str:
        """``json.dumps(self.to_dict())``, encoded on first read and kept.

        A candidate is immutable and the evaluation cache hands the same
        object to every request for it, so a served warm evaluation is
        encoded once.
        """
        return json.dumps(self.to_dict())
