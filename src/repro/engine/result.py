"""Columnar candidate records: what the store writes and a warm probe decodes.

:class:`CandidateColumns` is one evaluated candidate's columnar state — the
(query class × metric) evaluation block, the prefetch granules and the
allocation vectors — materializable into a
:class:`~repro.core.candidates.FragmentationCandidate` under any engine
context whose content signatures match the cache key it was stored under.
The persistent store (:mod:`repro.engine.store`) stacks these records into
columnar groups on save.  A load hands the cache one undecoded
:class:`~repro.engine.store.StoredCandidate` handle per stored candidate;
the first warm probe of a handle decodes its record and
:class:`~repro.engine.cache.EvaluationCache` materializes it.

Reconstruction is exact: every float travels as the same IEEE-754 double it
was computed as, layouts are rebuilt from the same ``(schema, spec, page
size)`` inputs (they are deterministic value objects), and the bitmap scheme
is taken from the shared engine context — so a reconstructed candidate is
bit-identical to the original, which the parity tests assert through
:func:`~repro.engine.signature.recommendation_fingerprint`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.allocation import Allocation
from repro.core.candidates import FragmentationCandidate
from repro.costmodel import (
    PROFILE_FLOAT_FIELDS,
    EvaluationColumns,
    WorkloadEvaluation,
)
from repro.fragmentation import build_layout
from repro.storage import PrefetchPolicy, PrefetchSetting

__all__ = ["CandidateColumns", "PROFILE_FLOAT_FIELDS"]


@dataclass(frozen=True)
class CandidateColumns:
    """One evaluated candidate, flattened to columnar arrays.

    Everything a candidate adds over its (re-derivable) layout: the columnar
    evaluation block, the prefetch granules and the allocation vectors.  The
    store writes these records and decodes one per warm probe, with its own
    copies of the arrays and the attribute pairs shared with its group's
    table.  :meth:`materialize` rebuilds the full
    :class:`FragmentationCandidate` under an engine context — valid exactly
    when the context's content signatures match the key this record is
    stored under, which the content-addressed cache guarantees.
    """

    #: The per-class evaluation state (one definition for the whole column
    #: list — cache views and the store both reuse it).
    columns: EvaluationColumns
    #: (fact_pages, bitmap_pages, fact_policy, bitmap_policy).
    prefetch: Tuple[int, int, str, str]
    allocation_scheme: str
    allocation_disks: np.ndarray
    allocation_pages: np.ndarray

    @classmethod
    def from_candidate(cls, candidate: FragmentationCandidate) -> "CandidateColumns":
        """Flatten one evaluated candidate into its columnar record."""
        setting = candidate.prefetch
        allocation = candidate.allocation
        return cls(
            columns=candidate.evaluation.as_columns(),
            prefetch=(
                setting.fact_pages,
                setting.bitmap_pages,
                setting.fact_policy.value,
                setting.bitmap_policy.value,
            ),
            allocation_scheme=allocation.scheme,
            allocation_disks=np.asarray(allocation.disk_of_fragment),
            allocation_pages=np.asarray(allocation.fragment_pages),
        )

    def materialize(self, context, spec) -> FragmentationCandidate:
        """Rebuild the candidate under ``context`` (layout re-derived).

        ``context`` is an :class:`~repro.engine.executor.EngineContext`; the
        layout is rebuilt from its schema/system (cheap — the per-fragment
        arrays are lazy) and the shared bitmap scheme is reattached by
        reference.
        """
        layout = build_layout(
            context.schema,
            spec,
            fact_table=context.fact_name,
            page_size_bytes=context.system.page_size_bytes,
            max_fragments=max(context.config.max_fragments, 1),
        )
        fact_pages, bitmap_pages, fact_policy, bitmap_policy = self.prefetch
        setting = PrefetchSetting(
            fact_pages=fact_pages,
            bitmap_pages=bitmap_pages,
            fact_policy=PrefetchPolicy(fact_policy),
            bitmap_policy=PrefetchPolicy(bitmap_policy),
        )
        evaluation = WorkloadEvaluation(
            layout=layout, prefetch=setting, columns=self.columns
        )
        allocation = Allocation(
            layout=layout,
            system=context.system,
            disk_of_fragment=self.allocation_disks,
            fragment_pages=self.allocation_pages,
            scheme=self.allocation_scheme,
        )
        return FragmentationCandidate(
            spec=spec,
            layout=layout,
            bitmap_scheme=context.bitmap_scheme,
            prefetch=setting,
            evaluation=evaluation,
            allocation=allocation,
        )
