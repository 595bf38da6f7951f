"""Columnar candidate records: what the store writes and a warm probe decodes.

:class:`CandidateColumns` is one evaluated candidate's columnar state — the
(query class × metric) evaluation block, the prefetch granules and, for a
greedy placement, its disk ids — materializable into a
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
and every allocation input the context determines are taken or derived as a
cold sweep takes them — so a reconstructed candidate is bit-identical to the
original, which the parity tests assert through
:func:`~repro.engine.signature.recommendation_fingerprint`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.allocation import Allocation, fragment_total_pages, round_robin_allocation
from repro.core.candidates import FragmentationCandidate
from repro.costmodel import (
    PROFILE_FLOAT_FIELDS,
    EvaluationColumns,
    WorkloadEvaluation,
)
from repro.engine.store import CorruptCandidate
from repro.fragmentation import build_layout
from repro.storage import PrefetchPolicy, PrefetchSetting

__all__ = ["CandidateColumns", "PROFILE_FLOAT_FIELDS"]


@dataclass(frozen=True)
class CandidateColumns:
    """One evaluated candidate, flattened to columnar arrays.

    Everything a candidate adds over what its engine context re-derives: the
    columnar evaluation block, the prefetch granules, the allocation scheme
    and, for a greedy placement only, the disk of every fragment.  The store
    writes these records and decodes one per warm probe, with its own
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
    #: The disk of every fragment of a ``greedy_size`` placement; ``None``
    #: for ``round_robin``, whose placement is a rule of the fragment index.
    allocation_disks: Optional[np.ndarray]

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
            allocation_disks=(
                None
                if allocation.scheme == "round_robin"
                else np.asarray(allocation.disk_of_fragment)
            ),
        )

    def materialize(self, context, spec) -> FragmentationCandidate:
        """Rebuild the candidate under ``context`` (layout re-derived).

        ``context`` is an :class:`~repro.engine.executor.EngineContext`; the
        layout is rebuilt from its schema/system (cheap — the per-fragment
        arrays are lazy), the shared bitmap scheme is reattached by
        reference, and the allocation is placed as a cold sweep places it:
        round-robin by its rule, greedy from the stored disk ids and the
        layout's page counts.  Raises
        :class:`~repro.engine.store.CorruptCandidate` when the record's
        fragment count is not the layout's, and
        :class:`~repro.errors.AllocationError` when a disk id does not fit
        the context's system.
        """
        layout = build_layout(
            context.schema,
            spec,
            fact_table=context.fact_name,
            page_size_bytes=context.system.page_size_bytes,
            max_fragments=max(context.config.max_fragments, 1),
        )
        if self.columns.fragments_total != layout.fragment_count:
            raise CorruptCandidate(
                f"stored candidate {spec.label} spans {self.columns.fragments_total} "
                f"fragments, its layout {layout.fragment_count}"
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
        if self.allocation_disks is None:
            allocation = round_robin_allocation(
                layout, context.system, context.bitmap_scheme
            )
        else:
            allocation = Allocation(
                layout=layout,
                system=context.system,
                disk_of_fragment=self.allocation_disks,
                fragment_pages=fragment_total_pages(layout, context.bitmap_scheme),
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
