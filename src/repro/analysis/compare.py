"""Candidate comparison.

Interactive fine-tuning ("let WARLOCK compare the results") needs a compact
side-by-side view of several candidates — typically the top of the ranking, or
the same fragmentation evaluated under different system parameters.

:func:`compare_candidates` renders candidates that were already evaluated;
:func:`compare_specs` evaluates a list of fragmentation specs through the
evaluation engine first (sharing its cache, so specs the advisor or a tuning
study already evaluated are rendered without recomputation) and then renders
the comparison.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.report import format_table
from repro.core.candidates import FragmentationCandidate
from repro.errors import ReportError

__all__ = ["compare_candidates", "compare_specs"]


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


def compare_specs(
    schema,
    workload,
    system,
    specs: Sequence,
    baseline_spec=None,
    config=None,
    fact_table=None,
    cache=None,
    options=None,
    on_progress=None,
    cancel=None,
) -> str:
    """Evaluate ``specs`` through the engine and render the comparison table.

    Parameters
    ----------
    schema, workload, system, config:
        Advisor inputs (see :class:`repro.core.Warlock`).
    specs:
        Fragmentation specs to evaluate and compare.
    baseline_spec:
        Optional spec evaluated as the ratio baseline (e.g. the unfragmented
        layout); it is appended to the comparison as its first row.
    fact_table:
        Fact table the specs fragment (the schema's primary fact table when
        omitted) — pass the same name the advisor was built with so cached
        evaluations are reused.
    options:
        Execution options (:class:`repro.api.EngineOptions`).
    cache:
        Evaluation cache to share with previous advisor/tuning work; a cache
        that already holds these evaluations makes this a pure rendering call.
    on_progress, cancel:
        Chunk-boundary progress callback and cooperative cancel signal (see
        :mod:`repro.api.progress`).
    """
    from repro.engine import EvaluationEngine

    if not specs:
        raise ReportError("compare_specs needs at least one spec")
    engine = EvaluationEngine(
        schema,
        workload,
        system,
        config,
        fact_table=fact_table,
        cache=cache,
        options=options,
    )
    sweep = list(specs) if baseline_spec is None else [baseline_spec, *specs]
    candidates = engine.evaluate_specs(sweep, on_progress=on_progress, cancel=cancel)
    if baseline_spec is None:
        return compare_candidates(candidates)
    return compare_candidates(candidates, baseline=candidates[0])
