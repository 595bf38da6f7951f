"""Evaluation plans: the unit-of-work expansion of a candidate sweep.

The advisor's prediction layer is an embarrassingly parallel sweep: every
surviving fragmentation candidate is evaluated against every query class of
the mix, and the per-class results are folded into one
:class:`~repro.costmodel.WorkloadEvaluation` per candidate.  An
:class:`EvaluationPlan` makes that shape explicit *before* execution: it
expands the (candidate × query class) work units up front, attaches a cost
estimate to every candidate (the fragment count — a good proxy, since layout
materialization and allocation scale with it), and partitions the candidates
into deterministic, load-balanced chunks for the executor, optionally capped
in width so a chunk's kernel planes stay bounded however large the sweep
grows.

Per-candidate granularity is the assignment unit (a candidate's query classes
share its layout, prefetch resolution and allocation, so splitting a candidate
across chunks would duplicate that work); any mix of candidates forms a valid
chunk, because the batched kernels stack layouts of any fragmentation
dimensions.  The unit expansion is still exposed
because it is the engine's accounting currency — progress, cache sizing and
the benchmark's work counts are all unit-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

from repro.errors import AdvisorError
from repro.fragmentation import FragmentationSpec
from repro.schema import StarSchema
from repro.workload import QueryMix

__all__ = ["WorkUnit", "EvaluationPlan"]


@dataclass(frozen=True)
class WorkUnit:
    """One (candidate, query class) evaluation of the sweep."""

    spec_index: int
    query_index: int
    spec_label: str
    query_name: str
    #: Fragment count of the candidate — the unit's relative cost estimate.
    estimated_fragments: int


@dataclass(frozen=True)
class EvaluationPlan:
    """The expanded work of one candidate sweep.

    ``specs`` preserves the caller's candidate order — the executor reports
    results in exactly this order regardless of how the work is partitioned.
    """

    specs: Tuple[FragmentationSpec, ...]
    query_names: Tuple[str, ...]
    #: Per-candidate cost estimates, index-aligned with ``specs``.
    spec_costs: Tuple[int, ...]

    @classmethod
    def build(
        cls,
        specs: Sequence[FragmentationSpec],
        workload: QueryMix,
        schema: StarSchema,
    ) -> "EvaluationPlan":
        """Expand ``specs`` × ``workload`` into an evaluation plan."""
        specs = tuple(specs)
        if not specs:
            raise AdvisorError("an evaluation plan needs at least one candidate spec")
        query_names = tuple(query.name for query, _ in workload.weighted_items())
        if not query_names:
            raise AdvisorError("an evaluation plan needs at least one query class")
        spec_costs = tuple(spec.fragment_count(schema) for spec in specs)
        return cls(
            specs=specs,
            query_names=query_names,
            spec_costs=spec_costs,
        )

    @cached_property
    def units(self) -> Tuple[WorkUnit, ...]:
        """The (candidate × query class) work units, expanded on first use.

        Lazy: the expansion materializes ``num_candidates × num_classes``
        objects, which is pure accounting (progress, cache sizing, benchmark
        work counts) — the executor dispatches per candidate and never needs
        it, so plain sweeps skip the cost entirely.
        """
        return tuple(
            WorkUnit(
                spec_index=spec_index,
                query_index=query_index,
                spec_label=spec.label,
                query_name=query_name,
                estimated_fragments=self.spec_costs[spec_index],
            )
            for spec_index, spec in enumerate(self.specs)
            for query_index, query_name in enumerate(self.query_names)
        )

    # -- shape ------------------------------------------------------------------

    @property
    def num_candidates(self) -> int:
        """Number of candidate specs in the sweep."""
        return len(self.specs)

    @property
    def num_units(self) -> int:
        """Number of (candidate × query class) work units."""
        return len(self.units)

    def units_for_spec(self, spec_index: int) -> Tuple[WorkUnit, ...]:
        """The work units of one candidate."""
        if not 0 <= spec_index < len(self.specs):
            raise AdvisorError(
                f"spec index {spec_index} out of range [0, {len(self.specs)})"
            )
        per_spec = len(self.query_names)
        return self.units[spec_index * per_spec : (spec_index + 1) * per_spec]

    # -- partitioning -----------------------------------------------------------

    def partition_indices(
        self, indices, parts: int, max_width: Optional[int] = None
    ) -> List[List[int]]:
        """Split a subset of candidate indices into ``parts`` balanced chunks.

        Deterministic longest-processing-time assignment: candidates are
        considered in decreasing cost (fragment count), each going to the
        currently least-loaded chunk; ties break towards the earlier candidate
        and the lower chunk number.  With ``max_width`` a full chunk (that
        many candidates) takes no more, which bounds the width of every
        chunk as long as ``parts * max_width`` covers the indices.  Within a
        chunk, indices are sorted so the executor streams each chunk in
        sweep order.  Empty chunks are dropped (when ``parts`` exceeds the
        candidate count).
        """
        if parts < 1:
            raise AdvisorError(f"parts must be at least 1, got {parts}")
        indices = list(indices)
        if max_width is not None and parts * max_width < len(indices):
            raise AdvisorError(
                f"{parts} chunks of at most {max_width} candidates cannot hold "
                f"{len(indices)} candidates"
            )
        costs = {index: max(1, self.spec_costs[index]) for index in indices}
        loads = [0] * parts
        chunks: List[List[int]] = [[] for _ in range(parts)]
        for index in sorted(indices, key=lambda index: (-costs[index], index)):
            target = min(
                (
                    part
                    for part in range(parts)
                    if max_width is None or len(chunks[part]) < max_width
                ),
                key=lambda part: (loads[part], part),
            )
            chunks[target].append(index)
            loads[target] += costs[index]
        for chunk in chunks:
            chunk.sort()
        return [chunk for chunk in chunks if chunk]

    def describe(self) -> str:
        """One-line summary used by logs and the benchmark."""
        return (
            f"evaluation plan: {self.num_candidates} candidates x "
            f"{len(self.query_names)} query classes = {self.num_units} work units, "
            f"{sum(self.spec_costs):,} fragments total"
        )
