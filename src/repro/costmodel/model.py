"""The analytical I/O cost and response-time model.

The model turns an access profile (pages / requests) into the two metrics the
advisor ranks by:

* **I/O cost** (``io_cost_ms``) — the total disk busy time the query induces:
  every request pays the positioning overhead, every transferred page pays the
  transfer time.  This is the throughput-oriented metric (total I/O work is
  what limits multi-user throughput).

* **I/O response time** (``response_time_ms``) — the elapsed time of the query
  when its I/O is spread over the disks holding the accessed fragments and
  executed in parallel, plus a small per-subquery coordination overhead.  This
  is the single-query-latency metric.

Declustering a query's hits over many fragments/disks enables parallelism and
lowers the response time but increases total I/O (more positioning overhead,
more pages touched); clustering does the opposite.  The model reproduces this
fundamental trade-off, which is the core of the paper's prediction layer.

This is the scalar reference oracle, a pure function of its inputs: it takes
no cache.  The prefetch resolution and the evaluation both read each query
class's prefetch-independent access structure; a caller that runs both
derives the structures once with :func:`workload_structures` and hands the
tuple to each, and either derives them once itself when called without them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional, Tuple

import numpy as np

from repro.bitmap import BitmapScheme
from repro.errors import CostModelError
from repro.fragmentation import FragmentationLayout
from repro.storage import (
    PrefetchPolicy,
    PrefetchSetting,
    SystemParameters,
    optimal_prefetch_pages,
)
from repro.workload import QueryClass, QueryMix
from repro.costmodel.access import (
    AccessStructure,
    QueryAccessProfile,
    compute_access_structure,
    estimate_access,
)

__all__ = [
    "PROFILE_FLOAT_FIELDS",
    "EvaluationColumns",
    "QueryCost",
    "WorkloadEvaluation",
    "IOCostModel",
    "prefetch_setting_from_runs",
    "resolve_prefetch_setting",
    "workload_structures",
]

#: Float columns of the evaluation metric block, in
#: :class:`~repro.costmodel.QueryAccessProfile` field order; the last two
#: metric slots hold the per-class I/O cost and response time of the
#: :class:`QueryCost` record.  This layout is shared by the columnar
#: evaluations and the persistent store.
PROFILE_FLOAT_FIELDS = (
    "fragments_accessed",
    "rows_in_accessed_fragments",
    "qualifying_rows",
    "fact_pages_per_fragment",
    "fact_pages_accessed",
    "bitmap_pages_accessed",
    "fact_io_requests",
    "bitmap_io_requests",
    "fact_pages_transferred",
    "bitmap_pages_transferred",
)

#: Total metric slots per class: the profile floats plus io cost and response.
NUM_METRIC_FIELDS = len(PROFILE_FLOAT_FIELDS) + 2


def _materialize(cls, state: dict):
    """Construct a frozen dataclass instance directly from its field dict.

    The columnar evaluations materialize per-class frozen profile/cost records
    lazily; the generated ``__init__`` of a frozen dataclass pays one
    ``object.__setattr__`` per field, which dominates the materialization.
    Neither :class:`QueryAccessProfile` nor :class:`QueryCost` has a
    ``__post_init__``, so seeding the instance ``__dict__`` is equivalent —
    equality, repr and pickling all read the same storage.
    """
    instance = object.__new__(cls)
    instance.__dict__.update(state)
    return instance


@dataclass(frozen=True)
class QueryCost:
    """Cost metrics of one query class on one fragmentation candidate."""

    query_name: str
    weight: float
    profile: QueryAccessProfile
    io_cost_ms: float
    response_time_ms: float
    disks_used: int

    @property
    def weighted_io_cost_ms(self) -> float:
        """I/O cost weighted by the class's workload share."""
        return self.weight * self.io_cost_ms

    @property
    def weighted_response_time_ms(self) -> float:
        """Response time weighted by the class's workload share."""
        return self.weight * self.response_time_ms


@dataclass(frozen=True)
class EvaluationColumns:
    """Columnar per-class state of one candidate evaluation.

    One float64 metric block (classes × :data:`NUM_METRIC_FIELDS`, in
    :data:`PROFILE_FLOAT_FIELDS` order plus I/O cost and response time) plus
    the small per-class discrete columns.  :meth:`records` materializes the
    scalar :class:`QueryCost` records — bit-identical to the eager per-class
    construction, because every value travels as the same IEEE-754 double it
    was computed as.  Keeping evaluations columnar removes the last
    O(classes) Python objects per candidate from the sweep's hot loop and
    shrinks the candidate cache's footprint (the columns are what the store
    persists, not the record graph).
    """

    #: Query class names, in mix order.
    query_names: Tuple[str, ...]
    #: Workload share per class.
    weights: Tuple[float, ...]
    #: Total fragments of the candidate's layout.
    fragments_total: int
    #: (classes × NUM_METRIC_FIELDS) float64 metric block.
    metrics: np.ndarray
    #: (classes,) int64.
    disks_used: np.ndarray
    #: (classes,) bool flags.
    sequential: np.ndarray
    forced: np.ndarray
    #: Per class: bitmap attributes used by the chosen plan.
    attributes_used: Tuple[Tuple[Tuple[str, str], ...], ...]

    @property
    def num_classes(self) -> int:
        """Number of query classes."""
        return len(self.query_names)

    def records(self) -> Tuple[QueryCost, ...]:
        """Materialize the per-class :class:`QueryCost` records (mix order)."""
        rows = self.metrics.tolist()
        sequential = self.sequential.tolist()
        forced = self.forced.tolist()
        disks = self.disks_used.tolist()
        fragments_total = self.fragments_total
        per_class = []
        for i, query_name in enumerate(self.query_names):
            row = rows[i]
            state = {
                "query_name": query_name,
                "fragments_total": fragments_total,
                "sequential_fact_access": sequential[i],
                "forced_full_scan": forced[i],
                "bitmap_attributes_used": self.attributes_used[i],
            }
            for f, field in enumerate(PROFILE_FLOAT_FIELDS):
                state[field] = row[f]
            profile = _materialize(QueryAccessProfile, state)
            per_class.append(
                _materialize(
                    QueryCost,
                    {
                        "query_name": query_name,
                        "weight": self.weights[i],
                        "profile": profile,
                        "io_cost_ms": row[-2],
                        "response_time_ms": row[-1],
                        "disks_used": disks[i],
                    },
                )
            )
        return tuple(per_class)

    @classmethod
    def from_records(cls, per_class, fragments_total: int) -> "EvaluationColumns":
        """Columnarize eager per-class records (the scalar path's output)."""
        num_classes = len(per_class)
        metrics = np.empty((num_classes, NUM_METRIC_FIELDS), dtype=np.float64)
        disks_used = np.empty(num_classes, dtype=np.int64)
        sequential = np.empty(num_classes, dtype=bool)
        forced = np.empty(num_classes, dtype=bool)
        attributes_used = []
        for c, cost in enumerate(per_class):
            profile = cost.profile
            for f, field in enumerate(PROFILE_FLOAT_FIELDS):
                metrics[c, f] = getattr(profile, field)
            metrics[c, -2] = cost.io_cost_ms
            metrics[c, -1] = cost.response_time_ms
            disks_used[c] = cost.disks_used
            sequential[c] = profile.sequential_fact_access
            forced[c] = profile.forced_full_scan
            attributes_used.append(profile.bitmap_attributes_used)
        return cls(
            query_names=tuple(cost.query_name for cost in per_class),
            weights=tuple(cost.weight for cost in per_class),
            fragments_total=fragments_total,
            metrics=metrics,
            disks_used=disks_used,
            sequential=sequential,
            forced=forced,
            attributes_used=tuple(attributes_used),
        )


class WorkloadEvaluation:
    """Aggregated evaluation of a fragmentation candidate over the whole mix.

    Backed either by eager per-class :class:`QueryCost` records (the scalar
    reference path) or by one columnar :class:`EvaluationColumns` block (the
    vectorized paths); ``per_class`` is a lazy view in the columnar case, so
    the sweep's hot loop never materializes the record graph.  The two
    headline totals are cached: the ranking probes them repeatedly for every
    candidate of a sweep (sort keys, leading-X% cut, report rendering), and
    the evaluation never changes after construction.
    """

    def __init__(
        self,
        layout: FragmentationLayout,
        prefetch: PrefetchSetting,
        per_class: Optional[Tuple[QueryCost, ...]] = None,
        columns: Optional[EvaluationColumns] = None,
    ) -> None:
        if (per_class is None) == (columns is None):
            raise CostModelError(
                "WorkloadEvaluation needs exactly one of per_class= or columns="
            )
        self.layout = layout
        self.prefetch = prefetch
        self.columns = columns
        self._per_class = tuple(per_class) if per_class is not None else None

    @property
    def per_class(self) -> Tuple[QueryCost, ...]:
        """Per-class cost records (materialized lazily from the columns)."""
        if self._per_class is None:
            self._per_class = self.columns.records()
        return self._per_class

    def as_columns(self) -> EvaluationColumns:
        """The columnar form: the backing columns, or the records columnarized."""
        if self.columns is not None:
            return self.columns
        return EvaluationColumns.from_records(self.per_class, self.layout.fragment_count)

    def __eq__(self, other) -> bool:
        if not isinstance(other, WorkloadEvaluation):
            return NotImplemented
        return (
            self.layout == other.layout
            and self.prefetch == other.prefetch
            and self.per_class == other.per_class
        )

    def __hash__(self) -> int:
        # Value hash matching __eq__, as the frozen-dataclass form had
        # (materializes the records once; hashing evaluations is rare).
        return hash((self.layout, self.prefetch, self.per_class))

    def __repr__(self) -> str:  # pragma: no cover - diagnostic only
        backing = "columnar" if self.columns is not None else "records"
        return (
            f"WorkloadEvaluation({self.layout.spec.label!r}, "
            f"classes={len(self.per_class)}, {backing})"
        )

    # -- totals -----------------------------------------------------------------
    #
    # Computed from the columns when available: same Python floats, same
    # left-to-right accumulation order as summing over the records — the
    # parity suite asserts the equality — without materializing the records.

    @cached_property
    def total_io_cost_ms(self) -> float:
        """Workload-weighted I/O cost (the advisor's primary metric)."""
        if self.columns is not None and self._per_class is None:
            values = self.columns.metrics[:, -2].tolist()
            return sum(w * v for w, v in zip(self.columns.weights, values))
        return sum(cost.weighted_io_cost_ms for cost in self.per_class)

    @cached_property
    def total_response_time_ms(self) -> float:
        """Workload-weighted response time (the advisor's secondary metric)."""
        if self.columns is not None and self._per_class is None:
            values = self.columns.metrics[:, -1].tolist()
            return sum(w * v for w, v in zip(self.columns.weights, values))
        return sum(cost.weighted_response_time_ms for cost in self.per_class)

    @property
    def total_pages_accessed(self) -> float:
        """Workload-weighted pages read per query."""
        return sum(
            cost.weight * cost.profile.total_pages_accessed for cost in self.per_class
        )

    @property
    def total_io_requests(self) -> float:
        """Workload-weighted disk requests per query."""
        return sum(
            cost.weight * cost.profile.total_io_requests for cost in self.per_class
        )

    def cost_for(self, query_name: str) -> QueryCost:
        """Per-class cost record by query name."""
        for cost in self.per_class:
            if cost.query_name == query_name:
                return cost
        raise CostModelError(f"no cost record for query class {query_name!r}")

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """Plain-dict summary (used by reports and the CLI JSON output)."""
        return {
            cost.query_name: {
                "weight": cost.weight,
                "io_cost_ms": cost.io_cost_ms,
                "response_time_ms": cost.response_time_ms,
                "fragments_accessed": cost.profile.fragments_accessed,
                "fact_pages_accessed": cost.profile.fact_pages_accessed,
                "bitmap_pages_accessed": cost.profile.bitmap_pages_accessed,
                "io_requests": cost.profile.total_io_requests,
                "disks_used": cost.disks_used,
            }
            for cost in self.per_class
        }


def _positioning_page_equivalent(system: SystemParameters) -> float:
    """Positioning overhead of the configured disk in page-transfer units."""
    page_time = system.disk.page_transfer_time_ms(system.page_size_bytes)
    if page_time <= 0:
        return 0.0
    return system.disk.positioning_time_ms / page_time


def workload_structures(
    layout: FragmentationLayout,
    workload: QueryMix,
    bitmap_scheme: BitmapScheme,
    validate: bool = True,
) -> Tuple[AccessStructure, ...]:
    """The access structure of every class of ``workload`` on ``layout``, in
    mix order.

    ``validate=False`` skips the per-query schema validation for callers that
    already validated the whole workload.
    """
    return tuple(
        compute_access_structure(layout, query_class, bitmap_scheme, validate=validate)
        for query_class, _ in workload.weighted_items()
    )


def prefetch_setting_from_runs(
    fact_runs: Tuple[float, ...],
    bitmap_runs: Tuple[float, ...],
    weights: Tuple[float, ...],
    system: SystemParameters,
) -> PrefetchSetting:
    """Select the prefetch granules from per-class typical run lengths.

    The granule-selection half of :func:`resolve_prefetch_setting`; the
    batched path selects from the same run-length floats with
    :func:`~repro.storage.prefetch.optimal_prefetch_pages_batch`.
    """
    if system.fact_prefetch_is_auto:
        fact_pages = optimal_prefetch_pages(
            fact_runs, system.disk, system.page_size_bytes, weights
        )
        fact_policy = PrefetchPolicy.AUTO
    else:
        fact_pages = int(system.prefetch_pages_fact)
        fact_policy = PrefetchPolicy.FIXED

    positive_bitmap_runs = [run for run in bitmap_runs if run > 0]
    if system.bitmap_prefetch_is_auto:
        if positive_bitmap_runs:
            bitmap_pages = optimal_prefetch_pages(
                positive_bitmap_runs, system.disk, system.page_size_bytes
            )
        else:
            bitmap_pages = 1
        bitmap_policy = PrefetchPolicy.AUTO
    else:
        bitmap_pages = int(system.prefetch_pages_bitmap)
        bitmap_policy = PrefetchPolicy.FIXED

    return PrefetchSetting(
        fact_pages=fact_pages,
        bitmap_pages=bitmap_pages,
        fact_policy=fact_policy,
        bitmap_policy=bitmap_policy,
    )


def resolve_prefetch_setting(
    layout: FragmentationLayout,
    workload: QueryMix,
    bitmap_scheme: BitmapScheme,
    system: SystemParameters,
    structures: Optional[Tuple[AccessStructure, ...]] = None,
) -> PrefetchSetting:
    """Resolve the prefetch granules for one fragmentation candidate.

    Fixed granules from :class:`SystemParameters` are passed through; ``"auto"``
    granules are optimized per object class from the typical run lengths the
    workload induces on this candidate — fragment sizes of fact tables and
    bitmaps strongly differ, hence the per-class optimization the paper
    highlights.  A class's typical fact run is its fragment size (sequential
    fragment scans dominate), its typical bitmap run the per-fragment extent
    of the indexes it reads under unit granules.  ``structures`` are the
    classes' access structures from :func:`workload_structures`; they are
    derived here when omitted.
    """
    if structures is None:
        structures = workload_structures(layout, workload, bitmap_scheme)
    unit_prefetch = PrefetchSetting.fixed(1, 1)
    positioning = _positioning_page_equivalent(system)
    fact_runs, bitmap_runs, weights = [], [], []
    for (query_class, share), structure in zip(workload.weighted_items(), structures):
        profile = estimate_access(
            layout,
            query_class,
            bitmap_scheme,
            unit_prefetch,
            positioning_page_equivalent=positioning,
            structure=structure,
        )
        fact_runs.append(profile.fact_pages_per_fragment)
        if profile.fragments_accessed > 0:
            bitmap_runs.append(
                profile.bitmap_pages_accessed / profile.fragments_accessed
            )
        else:
            bitmap_runs.append(0.0)
        weights.append(share)
    return prefetch_setting_from_runs(
        tuple(fact_runs), tuple(bitmap_runs), tuple(weights), system
    )


class IOCostModel:
    """Analytical I/O model bound to a set of system parameters.

    Parameters
    ----------
    system:
        DBS & disk parameters used for timing.
    """

    def __init__(self, system: SystemParameters) -> None:
        if not isinstance(system, SystemParameters):
            raise CostModelError(
                f"system must be SystemParameters, got {type(system).__name__}"
            )
        self.system = system

    # -- per-query metrics ---------------------------------------------------------

    def io_cost_ms(self, profile: QueryAccessProfile, prefetch: PrefetchSetting) -> float:
        """Total disk busy time (milliseconds) the query induces."""
        disk = self.system.disk
        page_time = disk.page_transfer_time_ms(self.system.page_size_bytes)
        fact_transfer = profile.fact_pages_transferred
        bitmap_transfer = profile.bitmap_pages_transferred
        if profile.sequential_fact_access:
            # Sequential requests transfer whole prefetch granules; the trailing
            # request of every fragment over-reads on average half a granule,
            # which the request count already reflects via the ceiling.
            fact_transfer = profile.fact_io_requests * prefetch.fact_pages
            fact_transfer = max(fact_transfer, profile.fact_pages_transferred)
        if profile.bitmap_io_requests > 0:
            bitmap_transfer = profile.bitmap_io_requests * prefetch.bitmap_pages
            bitmap_transfer = max(bitmap_transfer, profile.bitmap_pages_transferred)
        positioning = disk.positioning_time_ms * profile.total_io_requests
        transfer = page_time * (fact_transfer + bitmap_transfer)
        return positioning + transfer

    def disks_used(self, profile: QueryAccessProfile) -> int:
        """Number of disks over which the query's I/O is spread.

        Fragments are declustered over the disks (round-robin or greedy), so a
        query touching ``F`` fragments can use at most ``min(F, num_disks)``
        disks; a query confined to a single fragment uses one disk.
        """
        fragments = max(1.0, profile.fragments_accessed)
        return int(min(self.system.num_disks, math.ceil(fragments)))

    def response_time_ms(
        self,
        profile: QueryAccessProfile,
        prefetch: PrefetchSetting,
        layout: Optional[FragmentationLayout] = None,
    ) -> float:
        """Parallel I/O response time (milliseconds) of the query.

        The busy time is spread over the disks used; an imbalance factor
        derived from the fragment-size skew of the layout inflates the critical
        disk's share, and each parallel subquery pays a coordination overhead.
        """
        busy = self.io_cost_ms(profile, prefetch)
        disks = self.disks_used(profile)
        imbalance = 1.0
        if layout is not None and disks > 1:
            # A large size CV means the most loaded disk carries more than the
            # average share.  The heuristic inflation keeps the model simple
            # while preserving the ordering; the simulator provides exact values.
            imbalance = 1.0 + layout.fragment_size_cv / math.sqrt(disks)
        per_disk = busy / disks * imbalance
        coordination = self.system.effective_coordination_overhead_ms * disks
        return per_disk + coordination

    def query_cost(
        self,
        layout: FragmentationLayout,
        query: QueryClass,
        bitmap_scheme: BitmapScheme,
        prefetch: PrefetchSetting,
        weight: float = 1.0,
        structure: Optional[AccessStructure] = None,
    ) -> QueryCost:
        """Full cost record of one query class on one candidate.

        ``structure`` is the class's access structure; it is derived here
        when omitted.
        """
        profile = estimate_access(
            layout,
            query,
            bitmap_scheme,
            prefetch,
            positioning_page_equivalent=_positioning_page_equivalent(self.system),
            structure=structure,
        )
        return QueryCost(
            query_name=query.name,
            weight=weight,
            profile=profile,
            io_cost_ms=self.io_cost_ms(profile, prefetch),
            response_time_ms=self.response_time_ms(profile, prefetch, layout),
            disks_used=self.disks_used(profile),
        )

    # -- workload-level evaluation ----------------------------------------------------

    def evaluate(
        self,
        layout: FragmentationLayout,
        workload: QueryMix,
        bitmap_scheme: BitmapScheme,
        prefetch: Optional[PrefetchSetting] = None,
        structures: Optional[Tuple[AccessStructure, ...]] = None,
    ) -> WorkloadEvaluation:
        """Evaluate a fragmentation candidate against the whole query mix.

        ``structures`` are the classes' access structures from
        :func:`workload_structures`; they are derived once here when omitted,
        and serve the prefetch resolution too when ``prefetch`` is omitted.
        """
        if structures is None:
            structures = workload_structures(layout, workload, bitmap_scheme)
        if prefetch is None:
            prefetch = resolve_prefetch_setting(
                layout, workload, bitmap_scheme, self.system, structures=structures
            )
        per_class = tuple(
            self.query_cost(
                layout, query_class, bitmap_scheme, prefetch, share, structure
            )
            for (query_class, share), structure in zip(
                workload.weighted_items(), structures
            )
        )
        return WorkloadEvaluation(layout=layout, prefetch=prefetch, per_class=per_class)
