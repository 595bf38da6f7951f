"""Per-query access estimation.

Given a fragmentation layout, a bitmap scheme and a query class, this module
derives the *access profile* of the query: how many fragments it touches, how
many fact-table and bitmap pages it reads, how many rows qualify, and how many
disk requests the reads translate into under the configured prefetch granules.

The estimation follows the MDHF access semantics of the paper (and [5]):

* A restriction on a *fragmentation dimension* at a level **coarser than or
  equal to** the fragmentation attribute selects whole fragments — the query
  only touches the fragments whose attribute value descends from the selected
  values, and no further filtering is needed along that dimension.
* A restriction on a fragmentation dimension at a **finer** level touches the
  fragments owning the selected values' ancestors, and the residual filtering
  within those fragments is done via a bitmap index (if available) or a scan.
* A restriction on a **non-fragmentation** dimension never reduces the set of
  fragments; it is evaluated inside every accessed fragment via bitmap or scan.

The estimation is split into two phases so the evaluation engine can memoize
the expensive part:

1. :func:`compute_access_structure` derives the **prefetch-independent**
   access structure — fragments touched, pages per fragment, bitmap extents,
   residual selectivity, the Cardenas page estimate.  It depends only on
   (layout, query, bitmap scheme) and is therefore cacheable across the many
   prefetch settings and system variants a tuning session explores.
2. :func:`estimate_access` applies a concrete prefetch setting and positioning
   ratio to the structure: request counts, transfer volumes and the
   scan-vs-bitmap access path selection (cheap arithmetic).

Skew note: accessed-row expectations assume query constants drawn uniformly
from the attribute's value domain, so the *expected* volume matches the uniform
case; the variance skew introduces is exposed by the event-driven simulator
(:mod:`repro.simulation`), not by this analytical expectation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.bitmap import BitmapScheme
from repro.errors import CostModelError
from repro.fragmentation import FragmentationLayout
from repro.storage import PrefetchSetting
from repro.workload import QueryClass
from repro.costmodel.formulas import cardenas_pages, expected_distinct_ancestors

__all__ = [
    "AccessStructure",
    "QueryAccessProfile",
    "compute_access_structure",
    "estimate_access",
]

#: When a query touches at least this fraction of a fragment's pages the model
#: assumes the fragment is read sequentially (prefetched scan) instead of page
#: by page at random.
SEQUENTIAL_DENSITY_THRESHOLD = 0.5

#: Default cost of one disk positioning expressed in page-transfer units, used
#: by the scan-vs-bitmap access path choice when the caller does not supply the
#: true ratio (9 ms positioning / ~0.32 ms per 8 KB page at 25 MB/s ≈ 28).
DEFAULT_POSITIONING_PAGE_EQUIVALENT = 28.0


@dataclass(frozen=True)
class QueryAccessProfile:
    """Predicted physical access behaviour of one query class on one layout."""

    query_name: str
    #: Expected number of fragments the query touches.
    fragments_accessed: float
    #: Total number of fragments of the layout.
    fragments_total: int
    #: Expected rows stored in the accessed fragments.
    rows_in_accessed_fragments: float
    #: Expected rows that actually qualify for the query.
    qualifying_rows: float
    #: Expected fact-table pages per accessed fragment.
    fact_pages_per_fragment: float
    #: Expected fact-table pages read by the query (touched pages).
    fact_pages_accessed: float
    #: Expected bitmap pages read by the query.
    bitmap_pages_accessed: float
    #: Expected number of fact-table disk requests (prefetch-aware).
    fact_io_requests: float
    #: Expected number of bitmap disk requests (prefetch-aware).
    bitmap_io_requests: float
    #: Pages physically transferred for fact-table access (includes prefetch over-read).
    fact_pages_transferred: float
    #: Pages physically transferred for bitmap access.
    bitmap_pages_transferred: float
    #: True when the accessed fragments are scanned sequentially.
    sequential_fact_access: bool
    #: True when at least one residual restriction had no bitmap index and forced a scan.
    forced_full_scan: bool
    #: (dimension, level) attributes whose bitmaps were used for residual filtering.
    bitmap_attributes_used: Tuple[Tuple[str, str], ...] = field(default=())

    @property
    def total_pages_accessed(self) -> float:
        """Fact plus bitmap pages read."""
        return self.fact_pages_accessed + self.bitmap_pages_accessed

    @property
    def total_io_requests(self) -> float:
        """Fact plus bitmap disk requests."""
        return self.fact_io_requests + self.bitmap_io_requests

    @property
    def fragment_hit_ratio(self) -> float:
        """Fraction of all fragments the query touches (1.0 = no confinement)."""
        if self.fragments_total == 0:
            return 0.0
        return self.fragments_accessed / self.fragments_total


@dataclass(frozen=True)
class AccessStructure:
    """Prefetch-independent access behaviour of one query class on one layout.

    Everything here depends only on (layout, query, bitmap scheme): which
    fragments are touched, how large they are, which bitmap extents residual
    filtering would read and how many fact pages a bitmap-driven plan would
    touch.  Request counts, transfer volumes and the plan selection depend on
    the prefetch granules and are applied by :func:`estimate_access`.
    """

    query_name: str
    fragments_accessed: float
    fragments_total: int
    rows_in_accessed_fragments: float
    qualifying_rows: float
    rows_per_fragment: float
    fact_pages_per_fragment: float
    #: Bitmap pages per fragment, one entry per usable residual index.
    bitmap_pages_per_index: Tuple[float, ...]
    #: (dimension, level) of the usable residual bitmap indexes.
    bitmap_attributes_available: Tuple[Tuple[str, str], ...]
    forced_full_scan: bool
    #: Whether any residual restriction exists (precondition for a bitmap plan).
    has_residuals: bool
    #: Expected fact pages per fragment a bitmap-driven plan touches (Cardenas).
    bitmap_touched_per_fragment: float
    #: ``bitmap_touched_per_fragment / fact_pages_per_fragment``.
    bitmap_density: float

    @property
    def bitmap_pages_per_fragment(self) -> float:
        """Total bitmap pages read per fragment over all usable indexes."""
        return sum(self.bitmap_pages_per_index)

    @property
    def bitmap_plan_available(self) -> bool:
        """True when residual filtering can run entirely off bitmap indexes."""
        return (
            self.has_residuals
            and not self.forced_full_scan
            and bool(self.bitmap_attributes_available)
        )


def _axis_access(
    layout: FragmentationLayout,
    query: QueryClass,
    axis_index: int,
) -> Tuple[float, Optional[Tuple[str, str, int, float]]]:
    """Access behaviour along one fragmentation axis.

    Returns
    -------
    (accessed_values, residual_attribute)
        ``accessed_values``: expected fragment values touched along the axis.
        ``residual_attribute``: ``(dimension, level, value_count,
        residual_fraction)`` when residual filtering inside the touched
        fragments is required, else ``None``.  ``residual_fraction`` is the
        fraction of rows *inside the touched fragments* that still qualify
        w.r.t. this dimension (the fragmentation already confined the rest).
    """
    attribute = layout.spec.attributes[axis_index]
    dimension = layout.schema.dimension(attribute.dimension)
    frag_cardinality = layout.axis_cardinalities[axis_index]
    restriction = query.restriction_on(attribute.dimension)
    if restriction is None:
        return float(frag_cardinality), None

    query_cardinality = dimension.level(restriction.level).cardinality
    value_count = restriction.value_count

    if dimension.is_coarser_or_equal(restriction.level, attribute.level):
        # Restriction at or above the fragmentation level: whole fragments.
        fanout = frag_cardinality / query_cardinality
        accessed = min(float(frag_cardinality), max(1.0, value_count * fanout))
        return accessed, None

    # Restriction below the fragmentation level: the selected fine values map to
    # (at most value_count) fragment values; residual filtering keeps only the
    # matching rows inside those fragments.
    accessed = expected_distinct_ancestors(
        selected_values=value_count,
        fine_cardinality=query_cardinality,
        coarse_cardinality=frag_cardinality,
    )
    accessed = min(float(frag_cardinality), max(1.0, accessed))
    selected_fraction = value_count / query_cardinality
    accessed_fraction = accessed / frag_cardinality
    residual = min(1.0, selected_fraction / accessed_fraction)
    return accessed, (restriction.dimension, restriction.level, value_count, residual)


def compute_access_structure(
    layout: FragmentationLayout,
    query: QueryClass,
    bitmap_scheme: BitmapScheme,
    validate: bool = True,
) -> AccessStructure:
    """Derive the prefetch-independent access structure of ``query`` on ``layout``.

    Parameters
    ----------
    layout, query, bitmap_scheme:
        Materialized fragmentation, query class and available bitmap indexes.
    validate:
        Re-validate the query against the schema.  Callers that already
        validated the whole workload (the advisor does, once, at construction)
        pass ``False`` to skip the redundant per-call validation.
    """
    schema = layout.schema
    if validate:
        query.validate(schema)

    page_size = layout.page_size_bytes
    rows_per_page = layout.rows_per_page

    # --- which fragments are touched -----------------------------------------
    fragments_accessed = 1.0
    fragment_row_fraction = 1.0  # fraction of all rows stored in touched fragments
    # Residual restrictions evaluated inside the touched fragments, as
    # (dimension, level, value_count, residual_fraction) tuples.
    residual_attributes = []
    for axis_index in range(layout.spec.dimensionality):
        accessed, residual_attr = _axis_access(layout, query, axis_index)
        cardinality = layout.axis_cardinalities[axis_index]
        fragments_accessed *= accessed
        fragment_row_fraction *= accessed / cardinality
        if residual_attr is not None:
            residual_attributes.append(residual_attr)

    # Restrictions on non-fragmentation dimensions are always residual; the
    # fragmentation provides no confinement, so their residual fraction is the
    # plain selectivity of the restriction.
    for restriction in query.restrictions:
        if not layout.spec.uses_dimension(restriction.dimension):
            residual_attributes.append(
                (
                    restriction.dimension,
                    restriction.level,
                    restriction.value_count,
                    restriction.selectivity(schema),
                )
            )

    rows_in_accessed = layout.fact.row_count * fragment_row_fraction
    qualifying_rows = layout.fact.row_count * query.selectivity(schema)
    # Numerical guard: qualifying rows can never exceed the rows available in
    # the accessed fragments.
    qualifying_rows = min(qualifying_rows, rows_in_accessed)

    if fragments_accessed <= 0:
        raise CostModelError(
            f"query {query.name!r} accesses no fragments on {layout.spec.label}"
        )

    rows_per_fragment = rows_in_accessed / fragments_accessed
    fact_pages_per_fragment = max(
        1.0, math.ceil(rows_per_fragment / rows_per_page)
    ) if rows_per_fragment > 0 else 0.0

    # --- residual filtering: bitmap extents and selectivity --------------------------
    bitmap_pages_per_index = []
    bitmap_attributes_available = []
    forced_full_scan = False
    residual_selectivity = 1.0
    for dimension_name, level_name, value_count, residual_fraction in residual_attributes:
        residual_selectivity *= min(1.0, residual_fraction)
        index = bitmap_scheme.index_for(dimension_name, level_name)
        if index is None:
            forced_full_scan = True
            continue
        bitmap_attributes_available.append((dimension_name, level_name))
        per_fragment_pages = max(
            1.0,
            math.ceil(
                index.read_bytes(rows_per_fragment, value_count) / page_size
            ),
        ) if rows_per_fragment > 0 else 0.0
        bitmap_pages_per_index.append(per_fragment_pages)

    # --- fact pages a bitmap-driven plan would touch (Cardenas) ----------------------
    qualifying_per_fragment = rows_per_fragment * residual_selectivity
    touched_per_fragment = cardenas_pages(
        total_rows=rows_per_fragment,
        total_pages=fact_pages_per_fragment,
        selected_rows=qualifying_per_fragment,
    )
    touched_per_fragment = min(
        fact_pages_per_fragment, max(0.0, touched_per_fragment)
    )
    density = (
        touched_per_fragment / fact_pages_per_fragment
        if fact_pages_per_fragment > 0
        else 0.0
    )

    return AccessStructure(
        query_name=query.name,
        fragments_accessed=fragments_accessed,
        fragments_total=layout.fragment_count,
        rows_in_accessed_fragments=rows_in_accessed,
        qualifying_rows=qualifying_rows,
        rows_per_fragment=rows_per_fragment,
        fact_pages_per_fragment=float(fact_pages_per_fragment),
        bitmap_pages_per_index=tuple(bitmap_pages_per_index),
        bitmap_attributes_available=tuple(bitmap_attributes_available),
        forced_full_scan=forced_full_scan,
        has_residuals=bool(residual_attributes),
        bitmap_touched_per_fragment=touched_per_fragment,
        bitmap_density=density,
    )


def estimate_access(
    layout: FragmentationLayout,
    query: QueryClass,
    bitmap_scheme: BitmapScheme,
    prefetch: PrefetchSetting,
    positioning_page_equivalent: float = DEFAULT_POSITIONING_PAGE_EQUIVALENT,
    structure: Optional[AccessStructure] = None,
    validate: bool = True,
) -> QueryAccessProfile:
    """Estimate the access profile of ``query`` on ``layout``.

    Residual restrictions can be evaluated either by reading the relevant
    bitmap join indexes and then fetching only the qualifying fact pages, or by
    simply scanning the accessed fragments; the estimator performs this access
    path selection and keeps the cheaper plan, mirroring what a query optimizer
    would do (bitmaps exist to *avoid costly* scans, not to replace cheap ones).

    Parameters
    ----------
    layout:
        Materialized fragmentation.
    query:
        The query class to estimate.
    bitmap_scheme:
        Bitmap indexes available for residual filtering.
    prefetch:
        Prefetch granules (pages) for fact-table and bitmap reads.
    positioning_page_equivalent:
        Cost of one disk positioning expressed in page-transfer units; used by
        the scan-vs-bitmap plan choice.  The cost model passes the true ratio
        derived from the disk parameters; the default corresponds to a typical
        9 ms positioning over a 0.3 ms 8 KB-page transfer.
    structure:
        Pre-computed (possibly cached) prefetch-independent access structure.
        Derived on the fly when omitted.
    validate:
        Forwarded to :func:`compute_access_structure` when ``structure`` is
        omitted.
    """
    if structure is None:
        structure = compute_access_structure(
            layout, query, bitmap_scheme, validate=validate
        )

    fragments_accessed = structure.fragments_accessed
    fact_pages_per_fragment = structure.fact_pages_per_fragment
    forced_full_scan = structure.forced_full_scan

    # --- bitmap request counts under the configured granule ----------------------
    bitmap_pages_per_fragment = 0.0
    bitmap_requests_per_fragment = 0.0
    for per_fragment_pages in structure.bitmap_pages_per_index:
        per_fragment_requests = (
            math.ceil(per_fragment_pages / prefetch.bitmap_pages)
            if per_fragment_pages > 0
            else 0.0
        )
        bitmap_pages_per_fragment += per_fragment_pages
        bitmap_requests_per_fragment += per_fragment_requests

    # --- plan A: sequential scan of the accessed fragments ---------------------------
    scan_requests_per_fragment = (
        math.ceil(fact_pages_per_fragment / prefetch.fact_pages)
        if fact_pages_per_fragment > 0
        else 0.0
    )
    scan_cost_per_fragment = (
        scan_requests_per_fragment * positioning_page_equivalent
        + fact_pages_per_fragment
    )

    # --- plan B: bitmap-driven access (only if every residual predicate is indexed) --
    use_bitmap_plan = False
    if structure.bitmap_plan_available:
        touched_per_fragment = structure.bitmap_touched_per_fragment
        bitmap_sequential = structure.bitmap_density >= SEQUENTIAL_DENSITY_THRESHOLD
        if bitmap_sequential:
            bitmap_fact_requests = scan_requests_per_fragment
            bitmap_fact_transferred = fact_pages_per_fragment
            bitmap_fact_touched = fact_pages_per_fragment
        else:
            # Random access: one request per touched page, no useful prefetching.
            bitmap_fact_requests = touched_per_fragment
            bitmap_fact_transferred = touched_per_fragment
            bitmap_fact_touched = touched_per_fragment
        bitmap_plan_cost = (
            bitmap_fact_requests * positioning_page_equivalent
            + bitmap_fact_transferred
            + bitmap_requests_per_fragment * positioning_page_equivalent
            + bitmap_pages_per_fragment
        )
        use_bitmap_plan = bitmap_plan_cost < scan_cost_per_fragment

    if use_bitmap_plan:
        sequential = bitmap_sequential
        pages_touched_per_fragment = bitmap_fact_touched
        requests_per_fragment = bitmap_fact_requests
        transferred_per_fragment = bitmap_fact_transferred
        bitmap_pages = fragments_accessed * bitmap_pages_per_fragment
        bitmap_requests = fragments_accessed * bitmap_requests_per_fragment
        bitmap_attributes_used = tuple(structure.bitmap_attributes_available)
    else:
        # Scan plan: fragmentation confinement plus a sequential read of every
        # accessed fragment; no bitmap I/O is spent.
        sequential = True
        pages_touched_per_fragment = fact_pages_per_fragment
        requests_per_fragment = scan_requests_per_fragment
        transferred_per_fragment = fact_pages_per_fragment
        bitmap_pages = 0.0
        bitmap_requests = 0.0
        bitmap_attributes_used = ()

    fact_pages_accessed = fragments_accessed * pages_touched_per_fragment
    fact_io_requests = fragments_accessed * requests_per_fragment
    fact_pages_transferred = fragments_accessed * transferred_per_fragment

    return QueryAccessProfile(
        query_name=structure.query_name,
        fragments_accessed=fragments_accessed,
        fragments_total=structure.fragments_total,
        rows_in_accessed_fragments=structure.rows_in_accessed_fragments,
        qualifying_rows=structure.qualifying_rows,
        fact_pages_per_fragment=float(fact_pages_per_fragment),
        fact_pages_accessed=fact_pages_accessed,
        bitmap_pages_accessed=bitmap_pages,
        fact_io_requests=fact_io_requests,
        bitmap_io_requests=bitmap_requests,
        fact_pages_transferred=fact_pages_transferred,
        bitmap_pages_transferred=bitmap_pages,
        sequential_fact_access=sequential,
        forced_full_scan=forced_full_scan,
        bitmap_attributes_used=tuple(bitmap_attributes_used),
    )
