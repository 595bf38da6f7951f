"""Candidate comparison.

Interactive fine-tuning ("let WARLOCK compare the results") needs a compact
side-by-side view of several candidates — typically the top of the ranking, or
the same fragmentation evaluated under different system parameters.

:func:`compare_candidates` renders candidates that were already evaluated;
:meth:`repro.api.AdvisorSession.compare` evaluates a list of fragmentation
specs through the session's engine first (sharing its cache, so specs the
advisor or a tuning study already evaluated are rendered without
recomputation) and then renders the comparison with it.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.report import format_table
from repro.core.candidates import FragmentationCandidate
from repro.errors import ReportError

__all__ = ["compare_candidates"]


def compare_candidates(
    candidates: Sequence[FragmentationCandidate],
    baseline: Optional[FragmentationCandidate] = None,
) -> str:
    """Render a comparison table over ``candidates``.

    When ``baseline`` is given, relative I/O cost and response time columns
    (candidate / baseline) are added, which makes speed-ups over e.g. the
    unfragmented layout or a one-dimensional fragmentation directly visible.
    """
    if not candidates:
        raise ReportError("compare_candidates needs at least one candidate")

    headers = [
        "fragmentation",
        "dims",
        "fragments",
        "I/O cost [ms]",
        "response [ms]",
        "pages/query",
        "bitmap pages",
        "alloc",
        "occ. CV",
    ]
    if baseline is not None:
        headers.extend(["I/O vs base", "resp vs base"])

    rows = []
    for candidate in candidates:
        row = [
            candidate.label,
            f"{candidate.spec.dimensionality}",
            f"{candidate.fragment_count:,}",
            f"{candidate.io_cost_ms:,.0f}",
            f"{candidate.response_time_ms:,.0f}",
            f"{candidate.pages_accessed:,.0f}",
            f"{candidate.bitmap_storage_pages:,}",
            candidate.allocation.scheme,
            f"{candidate.allocation.occupancy_cv:.3f}",
        ]
        if baseline is not None:
            io_ratio = (
                candidate.io_cost_ms / baseline.io_cost_ms
                if baseline.io_cost_ms
                else float("inf")
            )
            rt_ratio = (
                candidate.response_time_ms / baseline.response_time_ms
                if baseline.response_time_ms
                else float("inf")
            )
            row.extend([f"{io_ratio:.2f}x", f"{rt_ratio:.2f}x"])
        rows.append(row)
    return format_table(headers, rows)
