"""Batched cost estimation: a stack of layouts as (candidate × class) planes.

The scalar path (:mod:`repro.costmodel.access` / :mod:`repro.costmodel.model`)
evaluates one (candidate, query class) pair per call and stays the reference
oracle.  This module is the one batched form of the same model: a
:class:`~repro.workload.ClassMatrix` supplies the workload in columnar form,
and a whole chunk of layouts on one fact table — whatever dimensions each
fragments — stacks into (candidate × class) planes:
:func:`compute_access_structure_batch_candidates` derives every stacked
candidate's structures in one pass, then
:func:`resolve_prefetch_settings_batch_candidates` and
:func:`evaluate_workload_batch_candidates` run over the same stack, so the
executor evaluates a whole sweep chunk in one kernel pass.

The engine evaluates a single candidate as a one-candidate chunk of the
same stacked kernels.  :func:`compute_access_structure_batch`,
:func:`resolve_prefetch_setting_batch` and :func:`evaluate_workload_batch`
are thin 1-row entry points over those kernels that no engine path calls:
the parity tests use them, and perfbench's layer probes rebind them.  They
exchange a 1-row :class:`AccessStructureBatch2D`, which is also the
per-layout unit of the evaluation cache (:meth:`~AccessStructureBatch2D.candidate`
copies one out of a stack, :meth:`~AccessStructureBatch2D.stack` joins them).

Evaluations come out **columnar** (:class:`~repro.costmodel.EvaluationColumns`
inside :class:`~repro.costmodel.WorkloadEvaluation`): per-class records are
lazy views, so the sweep materializes no per-class Python objects at all.

**Bit-parity contract.** The batched path is the *same model*, not an
approximation: every vector expression performs the identical IEEE-754 double
operations in the identical order as its scalar counterpart (down to routing
``pow`` through CPython floats, see
:func:`repro.costmodel.formulas._elementwise_pow`, and accumulating ragged
per-index sums with ``np.add.at`` in scalar iteration order; stacked flat
rows stay candidate-major so each candidate's slice replays the scalar
per-class order).  ``tests/test_vector_parity.py`` sweeps random layouts,
bitmap schemes and prefetch settings and asserts field-by-field equality of
:class:`~repro.costmodel.AccessStructure`,
:class:`~repro.costmodel.QueryAccessProfile` and
:class:`~repro.costmodel.QueryCost` between the scalar oracle and every
stacked candidate slice.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from functools import cached_property
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import CostModelError
from repro.fragmentation import FragmentationLayout
from repro.storage import PrefetchSetting, SystemParameters
from repro.workload.matrix import NO_RESTRICTION, ClassMatrix
from repro.costmodel.access import (
    SEQUENTIAL_DENSITY_THRESHOLD,
    AccessStructure,
    QueryAccessProfile,
)
from repro.costmodel.formulas import cardenas_pages, expected_distinct_ancestors
from repro.costmodel.model import (
    NUM_METRIC_FIELDS,
    EvaluationColumns,
    WorkloadEvaluation,
    _positioning_page_equivalent,
)

__all__ = [
    "AccessStructureBatch2D",
    "AccessProfileBatch2D",
    "compute_access_structure_batch",
    "compute_access_structure_batch_candidates",
    "estimate_access_batch_candidates",
    "resolve_prefetch_setting_batch",
    "resolve_prefetch_settings_batch_candidates",
    "evaluate_workload_batch",
    "evaluate_workload_batch_candidates",
]


# ---------------------------------------------------------------------------
# Candidate-axis kernels: a whole chunk of layouts as (candidate × class)
# ---------------------------------------------------------------------------
#
# The kernels below stack every layout of a chunk — whatever dimensions it
# fragments, and however many — and evaluate the whole stack as 2-D
# (candidate × class) arrays.  Axis position ``a`` gathers each candidate's
# own class-matrix row for its ``a``-th fragmentation dimension; a candidate
# with fewer axes (or an axis no class restricts) contributes the exact
# factor 1.0 the scalar loop would.  All per-class control flow (coarse/fine
# masks, residual sources) is masked vector arithmetic over explicit
# (candidate, class) coordinates, so every operation is the same elementwise
# IEEE-754 double operation the scalar path performs — slicing a candidate
# out of the stack is bit-identical to evaluating it alone, which the parity
# suite asserts.


@dataclass(frozen=True)
class _ResidualGroup:
    """One residual-restriction source over the (candidate × class) grid.

    The scalar path evaluates a class's residual restrictions in a fixed
    order: fragmentation-axis residuals in spec order, then restrictions on
    non-fragmentation dimensions in the class's restriction order.  Groups
    are built in exactly that order — one per axis position, then one per
    restriction slot — and each holds at most one entry per (candidate,
    class) pair at explicit flat coordinates, so iterating groups replays
    the scalar per-class residual order for every pair at once.
    """

    candidates: np.ndarray
    columns: np.ndarray
    fractions: np.ndarray
    has_bitmap: np.ndarray
    bits_read: np.ndarray
    #: Object array of ``(dimension, level)`` pairs.
    attributes: np.ndarray


@functools.lru_cache(maxsize=None)
def _first_candidate_column(rows: int) -> np.ndarray:
    """The ``index_candidate`` column of a 1-row copy with ``rows`` index rows.

    A read-only zero-stride view, one per row count (at most the classes
    times the bitmap indexes each reads), shared by every copy: a cached
    entry keeps no candidate column of its own.
    """
    return np.broadcast_to(np.zeros(1, dtype=np.int64), (rows,))


@dataclass(frozen=True)
class AccessStructureBatch2D:
    """Access structures of all classes on a *stack* of layouts.

    One (candidates × classes) plane per field of
    :class:`~repro.costmodel.AccessStructure`, plus a flat representation of
    the ragged per-class bitmap-index extents: one row per usable residual
    bitmap index, with its candidate and class coordinates, sorted
    candidate-major, then class, then per-class residual order.
    :meth:`candidate` copies one layout's row out as a 1-row stack —
    bit-identical to evaluating that layout alone — and :meth:`structure`
    materializes the scalar dataclass of any (candidate, class) pair.
    """

    query_names: Tuple[str, ...]
    #: (candidates,) int64 — fragments of each stacked layout.
    fragments_total: np.ndarray
    #: (candidates × classes) float64 / bool metric planes.
    fragments_accessed: np.ndarray
    rows_in_accessed_fragments: np.ndarray
    qualifying_rows: np.ndarray
    rows_per_fragment: np.ndarray
    fact_pages_per_fragment: np.ndarray
    forced_full_scan: np.ndarray
    has_residuals: np.ndarray
    bitmap_touched_per_fragment: np.ndarray
    bitmap_density: np.ndarray
    #: Flat residual-index rows (candidate-major, class-sorted, stable).
    index_candidate: np.ndarray
    index_class: np.ndarray
    #: Bitmap pages per fragment of that index.
    index_pages: np.ndarray
    #: (dimension, level) of that index.
    index_attributes: Tuple[Tuple[str, str], ...]
    #: Per (candidate, class) sum of ``index_pages`` (scalar accumulation order).
    bitmap_pages_per_fragment: np.ndarray

    @property
    def num_candidates(self) -> int:
        """Number of stacked candidates."""
        return len(self.fragments_total)

    @property
    def num_classes(self) -> int:
        """Number of query classes in the batch."""
        return len(self.query_names)

    @cached_property
    def bitmap_plan_available(self) -> np.ndarray:
        """Per (candidate, class): residual filtering can run off bitmaps."""
        indexed = np.zeros(self.has_residuals.shape, dtype=bool)
        indexed[self.index_candidate, self.index_class] = True
        return self.has_residuals & ~self.forced_full_scan & indexed

    @cached_property
    def _flat_keys(self) -> np.ndarray:
        """Combined (candidate, class) sort keys of the flat index rows."""
        return self.index_candidate * self.num_classes + self.index_class

    def _pair_slice(self, candidate: int, class_index: int) -> slice:
        """The flat index rows of one (candidate, class) pair."""
        key = candidate * self.num_classes + class_index
        lo, hi = np.searchsorted(self._flat_keys, [key, key + 1])
        return slice(int(lo), int(hi))

    def attributes_for(self, candidate: int, class_index: int) -> Tuple[Tuple[str, str], ...]:
        """``bitmap_attributes_available`` of one (candidate, class) pair."""
        return tuple(self.index_attributes[self._pair_slice(candidate, class_index)])

    def structure(self, candidate: int, class_index: int) -> AccessStructure:
        """Materialize the scalar :class:`AccessStructure` of one pair."""
        k, i = candidate, class_index
        rows = self._pair_slice(k, i)
        return AccessStructure(
            query_name=self.query_names[i],
            fragments_accessed=float(self.fragments_accessed[k, i]),
            fragments_total=int(self.fragments_total[k]),
            rows_in_accessed_fragments=float(self.rows_in_accessed_fragments[k, i]),
            qualifying_rows=float(self.qualifying_rows[k, i]),
            rows_per_fragment=float(self.rows_per_fragment[k, i]),
            fact_pages_per_fragment=float(self.fact_pages_per_fragment[k, i]),
            bitmap_pages_per_index=tuple(self.index_pages[rows].tolist()),
            bitmap_attributes_available=self.index_attributes[rows],
            forced_full_scan=bool(self.forced_full_scan[k, i]),
            has_residuals=bool(self.has_residuals[k, i]),
            bitmap_touched_per_fragment=float(self.bitmap_touched_per_fragment[k, i]),
            bitmap_density=float(self.bitmap_density[k, i]),
        )

    def candidate(self, k: int) -> "AccessStructureBatch2D":
        """Copy one stacked layout out as a 1-row stack.

        The copy holds no view into this stack, so a cached row never pins
        the rest of its chunk.
        """
        lo, hi = np.searchsorted(self.index_candidate, [k, k + 1]).tolist()
        return AccessStructureBatch2D(
            query_names=self.query_names,
            index_candidate=_first_candidate_column(hi - lo),
            index_class=self.index_class[lo:hi].copy(),
            index_pages=self.index_pages[lo:hi].copy(),
            index_attributes=self.index_attributes[lo:hi],
            **{name: getattr(self, name)[k : k + 1].copy() for name in _CANDIDATE_ROWS},
        )

    @classmethod
    def stack(cls, batches: Sequence["AccessStructureBatch2D"]) -> "AccessStructureBatch2D":
        """Join stacks of any height into one, in order.

        The inverse of :meth:`candidate`, used to mix cache-warm structures
        with freshly computed ones before the shared downstream kernels; each
        stack's flat index rows are already sorted, so concatenating them
        candidate-major, with every stack's candidates shifted past the
        stacks before it, keeps the sorted flat order the kernels rely on.
        """
        if not batches:
            raise CostModelError("cannot stack an empty structure-batch list")
        offsets = np.cumsum([0] + [batch.num_candidates for batch in batches[:-1]])
        return cls(
            query_names=batches[0].query_names,
            index_candidate=np.concatenate(
                [b.index_candidate + offset for b, offset in zip(batches, offsets)]
            ),
            index_class=np.concatenate([b.index_class for b in batches]),
            index_pages=np.concatenate([b.index_pages for b in batches]),
            index_attributes=tuple(
                attribute for b in batches for attribute in b.index_attributes
            ),
            **{
                name: np.concatenate([getattr(b, name) for b in batches])
                for name in _CANDIDATE_ROWS
            },
        )


#: The fields of :class:`AccessStructureBatch2D` with one row per candidate:
#: all but the class names and the flat index rows.
_CANDIDATE_ROWS = tuple(
    field.name
    for field in dataclasses.fields(AccessStructureBatch2D)
    if field.name != "query_names" and not field.name.startswith("index_")
)


def _require_one_fact_table(layouts: Sequence[FragmentationLayout]) -> None:
    """The kernel reads the fact table and page size off ``layouts[0]``."""
    if not layouts:
        raise CostModelError("candidate-axis batching needs at least one layout")
    fact, page_size = layouts[0].fact, layouts[0].page_size_bytes
    for layout in layouts[1:]:
        if layout.page_size_bytes != page_size or layout.fact != fact:
            raise CostModelError(
                f"candidate-axis batching requires one fact table and page "
                f"size per stack: {layout.spec.label} ({layout.fact.name}, "
                f"{layout.page_size_bytes} B pages) does not match "
                f"{fact.name}, {page_size} B pages"
            )


def _axis_geometry(
    layouts: Sequence[FragmentationLayout], matrix: ClassMatrix
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per (candidate, axis position): matrix row, cardinality, level depth.

    Positions beyond a candidate's dimensionality, and axes on a dimension no
    class restricts, get row ``NO_RESTRICTION``; padded positions also get
    cardinality 1.0, so they multiply every product by exactly 1.0.
    Cardinalities are exact float64 values (far below 2**53), so every
    division against them matches the scalar path.
    """
    row_of = {name: row for row, name in enumerate(matrix.dimension_names)}
    width = max(layout.spec.dimensionality for layout in layouts)
    rows = [[NO_RESTRICTION] * width for _ in layouts]
    cards = [[1.0] * width for _ in layouts]
    depths = [[0] * width for _ in layouts]
    for k, layout in enumerate(layouts):
        for a, (attribute, cardinality) in enumerate(
            zip(layout.spec.attributes, layout.axis_cardinalities)
        ):
            cards[k][a] = float(cardinality)
            row = row_of.get(attribute.dimension)
            if row is not None:
                rows[k][a] = row
                depths[k][a] = layout.schema.dimension(
                    attribute.dimension
                ).level_index(attribute.level)
    return (
        np.array(rows, dtype=np.int64).reshape(len(layouts), width),
        np.array(cards, dtype=np.float64).reshape(len(layouts), width),
        np.array(depths, dtype=np.int64).reshape(len(layouts), width),
    )


def _axis_confinement(
    rows: np.ndarray,
    cards: np.ndarray,
    depths: np.ndarray,
    matrix: ClassMatrix,
) -> Tuple[np.ndarray, np.ndarray, List[_ResidualGroup]]:
    """Fragment confinement along every axis position, for the whole stack.

    Each candidate's attribute level becomes a per-candidate depth, the
    coarse/fine split becomes a 2-D mask, and every arithmetic step stays the
    elementwise operation of the scalar ``_axis_access`` loop.
    """
    num_candidates, width = rows.shape
    num_classes = matrix.num_classes
    fragments_accessed = np.ones((num_candidates, num_classes), dtype=np.float64)
    fragment_row_fraction = np.ones((num_candidates, num_classes), dtype=np.float64)
    groups: List[_ResidualGroup] = []

    for a in range(width):
        axis_cards = cards[:, a : a + 1]
        accessed = np.repeat(axis_cards, num_classes, axis=1)
        has_row = rows[:, a] >= 0
        if has_row.any():
            row = np.where(has_row, rows[:, a], 0)
            restricted = matrix.restricted[row] & has_row[:, None]
            value_count = matrix.value_counts[row]
            query_cardinality = matrix.level_cardinalities[row]
            depth = matrix.level_depths[row]
            attribute_depth = depths[:, a : a + 1]

            # Restriction at or above the fragmentation level: whole fragments.
            coarse = restricted & (depth <= attribute_depth)
            if coarse.any():
                with np.errstate(divide="ignore", invalid="ignore"):
                    fanout = axis_cards / query_cardinality
                    coarse_accessed = np.minimum(
                        axis_cards, np.maximum(1.0, value_count * fanout)
                    )
                accessed = np.where(coarse, coarse_accessed, accessed)

            # Restriction below the fragmentation level: residual filtering.
            cand, cols = np.nonzero(restricted & (depth > attribute_depth))
            if cand.size:
                cards_flat = axis_cards[cand, 0]
                selected = value_count[cand, cols]
                fine_cardinality = query_cardinality[cand, cols]
                fine_accessed = expected_distinct_ancestors(
                    selected_values=selected,
                    fine_cardinality=fine_cardinality,
                    coarse_cardinality=cards_flat,
                )
                fine_accessed = np.minimum(cards_flat, np.maximum(1.0, fine_accessed))
                accessed[cand, cols] = fine_accessed
                selected_fraction = selected / fine_cardinality
                accessed_fraction = fine_accessed / cards_flat
                residual = np.minimum(1.0, selected_fraction / accessed_fraction)
                flat_rows = row[cand]
                groups.append(
                    _ResidualGroup(
                        candidates=cand,
                        columns=cols,
                        fractions=residual,
                        has_bitmap=matrix.has_bitmap[flat_rows, cols],
                        bits_read=matrix.bitmap_bits_read[flat_rows, cols],
                        attributes=matrix.attribute_table[flat_rows, cols],
                    )
                )

        fragments_accessed = fragments_accessed * accessed
        fragment_row_fraction = fragment_row_fraction * (accessed / axis_cards)

    return fragments_accessed, fragment_row_fraction, groups


def _slot_groups(axis_rows: np.ndarray, matrix: ClassMatrix) -> List[_ResidualGroup]:
    """Residual restrictions on non-fragmentation dimensions, slot by slot.

    Slot membership depends on each candidate's own fragmentation
    dimensions, so every group carries explicit (candidate, class)
    coordinates.
    """
    num_candidates = axis_rows.shape[0]
    # Per candidate: row index -> "is a fragmentation dimension".  The
    # trailing column absorbs NO_RESTRICTION (-1) entries of both the axis
    # rows and the slot padding, which the validity mask filters out anyway.
    in_spec = np.zeros((num_candidates, matrix.num_dimensions + 1), dtype=bool)
    in_spec[np.arange(num_candidates)[:, None], axis_rows] = True
    groups: List[_ResidualGroup] = []
    for slot in range(matrix.slot_dimensions.shape[1]):
        dimension_rows = matrix.slot_dimensions[:, slot]
        mask = (dimension_rows >= 0)[None, :] & ~in_spec[:, dimension_rows]
        cand, cols = np.nonzero(mask)
        if not cand.size:
            continue
        rows = dimension_rows[cols]
        groups.append(
            _ResidualGroup(
                candidates=cand,
                columns=cols,
                fractions=matrix.restriction_selectivities[rows, cols],
                has_bitmap=matrix.has_bitmap[rows, cols],
                bits_read=matrix.bitmap_bits_read[rows, cols],
                attributes=matrix.attribute_table[rows, cols],
            )
        )
    return groups


def compute_access_structure_batch_candidates(
    layouts: Sequence[FragmentationLayout], matrix: ClassMatrix
) -> AccessStructureBatch2D:
    """Derive the access structures of a whole layout stack in one pass.

    The batched twin of :func:`~repro.costmodel.compute_access_structure`:
    the layouts may fragment any dimensions, but must share one fact table
    and page size; all per-class quantities are computed as (candidate ×
    class) planes with the scalar path's elementwise operations, so every
    stacked candidate is bit-identical to the per-layout computation.  The
    workload is assumed validated (the engine validates it once at
    construction).
    """
    _require_one_fact_table(layouts)
    num_candidates = len(layouts)
    num_classes = matrix.num_classes
    page_size = layouts[0].page_size_bytes
    rows_per_page = layouts[0].rows_per_page
    row_count = layouts[0].fact.row_count

    axis_rows, axis_cards, axis_depths = _axis_geometry(layouts, matrix)
    fragments_accessed, fragment_row_fraction, groups = _axis_confinement(
        axis_rows, axis_cards, axis_depths, matrix
    )
    groups.extend(_slot_groups(axis_rows, matrix))

    rows_in_accessed = row_count * fragment_row_fraction
    qualifying_rows = row_count * np.asarray(matrix.selectivities, dtype=np.float64)[None, :]
    qualifying_rows = np.minimum(qualifying_rows, rows_in_accessed)

    non_positive = fragments_accessed <= 0
    if non_positive.any():
        failing_candidate, failing_class = (
            int(coords[0]) for coords in np.nonzero(non_positive)
        )
        raise CostModelError(
            f"query {matrix.query_names[failing_class]!r} accesses no fragments "
            f"on {layouts[failing_candidate].spec.label}"
        )

    rows_per_fragment = rows_in_accessed / fragments_accessed
    with np.errstate(invalid="ignore"):
        fact_pages_per_fragment = np.where(
            rows_per_fragment > 0,
            np.maximum(1.0, np.ceil(rows_per_fragment / rows_per_page)),
            0.0,
        )

    # --- residual filtering: bitmap extents and selectivity, group order ---------
    residual_selectivity = np.ones((num_candidates, num_classes), dtype=np.float64)
    forced_full_scan = np.zeros((num_candidates, num_classes), dtype=bool)
    has_residuals = np.zeros((num_candidates, num_classes), dtype=bool)
    index_cand_parts: List[np.ndarray] = []
    index_class_parts: List[np.ndarray] = []
    index_pages_parts: List[np.ndarray] = []
    index_attribute_parts: List[np.ndarray] = []
    for group in groups:
        cand, cols = group.candidates, group.columns
        has_residuals[cand, cols] = True
        residual_selectivity[cand, cols] *= np.minimum(1.0, group.fractions)
        no_index = ~group.has_bitmap
        forced_full_scan[cand[no_index], cols[no_index]] = True
        indexed = np.nonzero(group.has_bitmap)[0]
        if not indexed.size:
            continue
        flat_rows = rows_per_fragment[cand[indexed], cols[indexed]]
        pages = np.where(
            flat_rows > 0,
            np.maximum(
                1.0,
                np.ceil(group.bits_read[indexed] * flat_rows / 8.0 / page_size),
            ),
            0.0,
        )
        index_cand_parts.append(cand[indexed])
        index_class_parts.append(cols[indexed])
        index_pages_parts.append(pages)
        index_attribute_parts.append(group.attributes[indexed])

    if index_cand_parts:
        # Sort the flat rows candidate-major, class within, stably: groups
        # are built in the scalar per-class residual order, so each
        # candidate's slice replays the scalar accumulation order.
        index_candidate = np.concatenate(index_cand_parts)
        index_class = np.concatenate(index_class_parts)
        order = np.argsort(
            index_candidate * num_classes + index_class, kind="stable"
        )
        index_candidate = index_candidate[order]
        index_class = index_class[order]
        index_pages = np.concatenate(index_pages_parts)[order]
        index_attributes = tuple(
            np.concatenate(index_attribute_parts)[order].tolist()
        )
    else:
        index_candidate = np.empty(0, dtype=np.int64)
        index_class = np.empty(0, dtype=np.int64)
        index_pages = np.empty(0, dtype=np.float64)
        index_attributes = ()

    bitmap_pages_per_fragment = np.zeros(
        (num_candidates, num_classes), dtype=np.float64
    )
    np.add.at(bitmap_pages_per_fragment, (index_candidate, index_class), index_pages)

    # --- fact pages a bitmap-driven plan would touch (Cardenas) ------------------
    qualifying_per_fragment = rows_per_fragment * residual_selectivity
    touched_per_fragment = cardenas_pages(
        total_rows=rows_per_fragment,
        total_pages=fact_pages_per_fragment,
        selected_rows=qualifying_per_fragment,
    )
    touched_per_fragment = np.minimum(
        fact_pages_per_fragment, np.maximum(0.0, touched_per_fragment)
    )
    with np.errstate(invalid="ignore"):
        density = np.where(
            fact_pages_per_fragment > 0,
            touched_per_fragment / fact_pages_per_fragment,
            0.0,
        )

    return AccessStructureBatch2D(
        query_names=matrix.query_names,
        fragments_total=np.array(
            [layout.fragment_count for layout in layouts], dtype=np.int64
        ),
        fragments_accessed=fragments_accessed,
        rows_in_accessed_fragments=rows_in_accessed,
        qualifying_rows=qualifying_rows,
        rows_per_fragment=rows_per_fragment,
        fact_pages_per_fragment=fact_pages_per_fragment,
        forced_full_scan=forced_full_scan,
        has_residuals=has_residuals,
        bitmap_touched_per_fragment=touched_per_fragment,
        bitmap_density=density,
        index_candidate=index_candidate,
        index_class=index_class,
        index_pages=index_pages,
        index_attributes=index_attributes,
        bitmap_pages_per_fragment=bitmap_pages_per_fragment,
    )


@dataclass(frozen=True)
class AccessProfileBatch2D:
    """Access profiles of a layout stack under per-candidate prefetch settings.

    The columnar twin of :class:`~repro.costmodel.QueryAccessProfile`; every
    plane is (candidate × class).  :meth:`profile` materializes the scalar
    dataclass for any (candidate, class) pair — bit-identical to
    :func:`~repro.costmodel.estimate_access` on that layout alone.
    """

    structures: AccessStructureBatch2D
    fact_pages_accessed: np.ndarray
    bitmap_pages_accessed: np.ndarray
    fact_io_requests: np.ndarray
    bitmap_io_requests: np.ndarray
    fact_pages_transferred: np.ndarray
    sequential_fact_access: np.ndarray
    use_bitmap_plan: np.ndarray

    def profile(self, candidate: int, class_index: int) -> QueryAccessProfile:
        """Materialize the scalar :class:`QueryAccessProfile` of one pair."""
        k, i = candidate, class_index
        structures = self.structures
        bitmap_pages = float(self.bitmap_pages_accessed[k, i])
        return QueryAccessProfile(
            query_name=structures.query_names[i],
            fragments_accessed=float(structures.fragments_accessed[k, i]),
            fragments_total=int(structures.fragments_total[k]),
            rows_in_accessed_fragments=float(
                structures.rows_in_accessed_fragments[k, i]
            ),
            qualifying_rows=float(structures.qualifying_rows[k, i]),
            fact_pages_per_fragment=float(structures.fact_pages_per_fragment[k, i]),
            fact_pages_accessed=float(self.fact_pages_accessed[k, i]),
            bitmap_pages_accessed=bitmap_pages,
            fact_io_requests=float(self.fact_io_requests[k, i]),
            bitmap_io_requests=float(self.bitmap_io_requests[k, i]),
            fact_pages_transferred=float(self.fact_pages_transferred[k, i]),
            bitmap_pages_transferred=bitmap_pages,
            sequential_fact_access=bool(self.sequential_fact_access[k, i]),
            forced_full_scan=bool(structures.forced_full_scan[k, i]),
            bitmap_attributes_used=(
                structures.attributes_for(k, i) if self.use_bitmap_plan[k, i] else ()
            ),
        )


def estimate_access_batch_candidates(
    structures: AccessStructureBatch2D,
    fact_granules: np.ndarray,
    bitmap_granules: np.ndarray,
    positioning_page_equivalent: float,
) -> AccessProfileBatch2D:
    """Apply per-candidate prefetch granules to a structure stack at once.

    The batched twin of :func:`~repro.costmodel.estimate_access`:
    ``fact_granules`` and ``bitmap_granules`` are (candidates,) float64
    vectors holding each candidate's (integer-valued) granules —
    integer-to-double conversion is exact, so the per-element divisions match
    the scalar path bitwise.
    """
    fragments_accessed = structures.fragments_accessed
    fact_pages_per_fragment = structures.fact_pages_per_fragment
    num_candidates, num_classes = fragments_accessed.shape

    # --- bitmap request counts under the configured granules ---------------------
    granules_flat = bitmap_granules[structures.index_candidate]
    index_requests = np.where(
        structures.index_pages > 0,
        np.ceil(structures.index_pages / granules_flat),
        0.0,
    )
    bitmap_requests_per_fragment = np.zeros(
        (num_candidates, num_classes), dtype=np.float64
    )
    np.add.at(
        bitmap_requests_per_fragment,
        (structures.index_candidate, structures.index_class),
        index_requests,
    )
    bitmap_pages_per_fragment = structures.bitmap_pages_per_fragment

    # --- plan A: sequential scan of the accessed fragments ------------------------
    fact_granule_col = fact_granules[:, None]
    scan_requests_per_fragment = np.where(
        fact_pages_per_fragment > 0,
        np.ceil(fact_pages_per_fragment / fact_granule_col),
        0.0,
    )
    scan_cost_per_fragment = (
        scan_requests_per_fragment * positioning_page_equivalent
        + fact_pages_per_fragment
    )

    # --- plan B: bitmap-driven access ---------------------------------------------
    touched_per_fragment = structures.bitmap_touched_per_fragment
    bitmap_sequential = structures.bitmap_density >= SEQUENTIAL_DENSITY_THRESHOLD
    bitmap_fact_requests = np.where(
        bitmap_sequential, scan_requests_per_fragment, touched_per_fragment
    )
    bitmap_fact_transferred = np.where(
        bitmap_sequential, fact_pages_per_fragment, touched_per_fragment
    )
    bitmap_plan_cost = (
        bitmap_fact_requests * positioning_page_equivalent
        + bitmap_fact_transferred
        + bitmap_requests_per_fragment * positioning_page_equivalent
        + bitmap_pages_per_fragment
    )
    use_bitmap_plan = structures.bitmap_plan_available & (
        bitmap_plan_cost < scan_cost_per_fragment
    )

    sequential = np.where(use_bitmap_plan, bitmap_sequential, True)
    pages_touched_per_fragment = np.where(
        use_bitmap_plan, bitmap_fact_transferred, fact_pages_per_fragment
    )
    requests_per_fragment = np.where(
        use_bitmap_plan, bitmap_fact_requests, scan_requests_per_fragment
    )
    transferred_per_fragment = np.where(
        use_bitmap_plan, bitmap_fact_transferred, fact_pages_per_fragment
    )
    bitmap_pages = np.where(
        use_bitmap_plan, fragments_accessed * bitmap_pages_per_fragment, 0.0
    )
    bitmap_requests = np.where(
        use_bitmap_plan, fragments_accessed * bitmap_requests_per_fragment, 0.0
    )

    return AccessProfileBatch2D(
        structures=structures,
        fact_pages_accessed=fragments_accessed * pages_touched_per_fragment,
        bitmap_pages_accessed=bitmap_pages,
        fact_io_requests=fragments_accessed * requests_per_fragment,
        bitmap_io_requests=bitmap_requests,
        fact_pages_transferred=fragments_accessed * transferred_per_fragment,
        sequential_fact_access=sequential,
        use_bitmap_plan=use_bitmap_plan,
    )


def resolve_prefetch_settings_batch_candidates(
    structures: AccessStructureBatch2D,
    matrix: ClassMatrix,
    system: SystemParameters,
) -> Tuple[PrefetchSetting, ...]:
    """Resolve each stacked candidate's prefetch granules in one vector pass.

    The batched twin of :func:`~repro.costmodel.resolve_prefetch_setting`:
    the unit-granule estimation runs once over the whole stack, then the
    granule selection runs over the candidate axis on exactly the run-length
    floats the scalar path derives, so the returned settings are identical to
    per-layout scalar resolution.
    """
    num_candidates = structures.num_candidates
    unit = np.ones(num_candidates, dtype=np.float64)
    unit_profiles = estimate_access_batch_candidates(
        structures, unit, unit, _positioning_page_equivalent(system)
    )
    fact_runs = structures.fact_pages_per_fragment
    with np.errstate(divide="ignore", invalid="ignore"):
        bitmap_runs = np.where(
            structures.fragments_accessed > 0,
            unit_profiles.bitmap_pages_accessed / structures.fragments_accessed,
            0.0,
        )
    # Granule selection, batched over the candidate axis.  Fixed granules
    # pass through; "auto" granules are optimized for the whole stack with
    # one (candidate × class × granule) cost tensor — bit-identical to the
    # per-candidate scalar selection (see optimal_prefetch_pages_batch).
    from repro.storage.prefetch import PrefetchPolicy, optimal_prefetch_pages_batch

    if system.fact_prefetch_is_auto:
        fact_pages = optimal_prefetch_pages_batch(
            fact_runs, system.disk, system.page_size_bytes, matrix.shares
        )
        fact_policy = PrefetchPolicy.AUTO
    else:
        fact_pages = [int(system.prefetch_pages_fact)] * num_candidates
        fact_policy = PrefetchPolicy.FIXED
    if system.bitmap_prefetch_is_auto:
        bitmap_pages = optimal_prefetch_pages_batch(
            bitmap_runs, system.disk, system.page_size_bytes
        )
        bitmap_policy = PrefetchPolicy.AUTO
    else:
        bitmap_pages = [int(system.prefetch_pages_bitmap)] * num_candidates
        bitmap_policy = PrefetchPolicy.FIXED
    return tuple(
        PrefetchSetting(
            fact_pages=fact_pages[k],
            bitmap_pages=bitmap_pages[k],
            fact_policy=fact_policy,
            bitmap_policy=bitmap_policy,
        )
        for k in range(num_candidates)
    )


def evaluate_workload_batch_candidates(
    layouts: Sequence[FragmentationLayout],
    structures: AccessStructureBatch2D,
    matrix: ClassMatrix,
    system: SystemParameters,
    prefetches: Sequence[PrefetchSetting],
) -> List[WorkloadEvaluation]:
    """Evaluate a whole layout stack against the mix, candidate-axis batched.

    The batched twin of :meth:`repro.costmodel.IOCostModel.evaluate` (with
    resolved prefetch settings): access profiles, I/O cost, response time and
    disk counts are computed as (candidate × class) planes, then each
    candidate's columnar
    :class:`~repro.costmodel.EvaluationColumns` is sliced out of the shared
    metric cube — bit-identical to evaluating the layouts one by one.
    """
    num_candidates = structures.num_candidates
    num_classes = structures.num_classes
    fact_granules = np.array(
        [setting.fact_pages for setting in prefetches], dtype=np.float64
    )
    bitmap_granules = np.array(
        [setting.bitmap_pages for setting in prefetches], dtype=np.float64
    )
    profiles = estimate_access_batch_candidates(
        structures, fact_granules, bitmap_granules,
        _positioning_page_equivalent(system),
    )

    # --- I/O cost (IOCostModel.io_cost_ms, candidate-axis) ------------------------
    disk = system.disk
    page_time = disk.page_transfer_time_ms(system.page_size_bytes)
    fact_transfer = np.where(
        profiles.sequential_fact_access,
        np.maximum(
            profiles.fact_io_requests * fact_granules[:, None],
            profiles.fact_pages_transferred,
        ),
        profiles.fact_pages_transferred,
    )
    bitmap_transfer = np.where(
        profiles.bitmap_io_requests > 0,
        np.maximum(
            profiles.bitmap_io_requests * bitmap_granules[:, None],
            profiles.bitmap_pages_accessed,
        ),
        profiles.bitmap_pages_accessed,
    )
    total_requests = profiles.fact_io_requests + profiles.bitmap_io_requests
    io_cost = disk.positioning_time_ms * total_requests + page_time * (
        fact_transfer + bitmap_transfer
    )

    # --- disks used and response time (candidate-axis) ----------------------------
    disks_used = np.minimum(
        float(system.num_disks),
        np.ceil(np.maximum(1.0, structures.fragments_accessed)),
    ).astype(np.int64)
    disks_f = disks_used.astype(np.float64)
    parallel = disks_used > 1
    size_cvs = np.array(
        [layout.fragment_size_cv for layout in layouts], dtype=np.float64
    )[:, None]
    imbalance = np.where(parallel, 1.0 + size_cvs / np.sqrt(disks_f), 1.0)
    response = (
        io_cost / disks_f * imbalance
        + system.effective_coordination_overhead_ms * disks_f
    )

    # --- slice the shared metric cube into per-candidate columnar evaluations ----
    cube = np.empty((num_candidates, num_classes, NUM_METRIC_FIELDS), dtype=np.float64)
    cube[..., 0] = structures.fragments_accessed
    cube[..., 1] = structures.rows_in_accessed_fragments
    cube[..., 2] = structures.qualifying_rows
    cube[..., 3] = structures.fact_pages_per_fragment
    cube[..., 4] = profiles.fact_pages_accessed
    cube[..., 5] = profiles.bitmap_pages_accessed
    cube[..., 6] = profiles.fact_io_requests
    cube[..., 7] = profiles.bitmap_io_requests
    cube[..., 8] = profiles.fact_pages_transferred
    cube[..., 9] = profiles.bitmap_pages_accessed  # transferred == accessed
    cube[..., -2] = io_cost
    cube[..., -1] = response

    # Bitmap attributes of every bitmap-plan (candidate, class) pair, with one
    # searchsorted over the flat index keys for the whole stack.
    plan_candidates, plan_classes = np.nonzero(profiles.use_bitmap_plan)
    plan_keys = plan_candidates * num_classes + plan_classes
    starts = np.searchsorted(structures._flat_keys, plan_keys, side="left")
    ends = np.searchsorted(structures._flat_keys, plan_keys, side="right")
    attributes_used = [[()] * num_classes for _ in range(num_candidates)]
    for k, c, lo, hi in zip(
        plan_candidates.tolist(), plan_classes.tolist(), starts.tolist(), ends.tolist()
    ):
        attributes_used[k][c] = structures.index_attributes[lo:hi]

    evaluations: List[WorkloadEvaluation] = []
    for k in range(num_candidates):
        columns = EvaluationColumns(
            query_names=matrix.query_names,
            weights=matrix.shares,
            fragments_total=int(structures.fragments_total[k]),
            metrics=cube[k].copy(),
            disks_used=disks_used[k].copy(),
            sequential=profiles.sequential_fact_access[k].copy(),
            forced=structures.forced_full_scan[k].copy(),
            attributes_used=tuple(attributes_used[k]),
        )
        evaluations.append(
            WorkloadEvaluation(
                layout=layouts[k], prefetch=prefetches[k], columns=columns
            )
        )
    return evaluations


# ---------------------------------------------------------------------------
# Single-candidate entry points: one layout as a 1-row stack (the parity
# tests and perfbench's probes use them; the engine runs one-candidate chunks)
# ---------------------------------------------------------------------------


def compute_access_structure_batch(
    layout: FragmentationLayout, matrix: ClassMatrix
) -> AccessStructureBatch2D:
    """Derive one layout's access structures for every class at once.

    The batched twin of :func:`~repro.costmodel.compute_access_structure`:
    the layout is evaluated as a 1-row stack.  The workload is assumed
    validated (the engine validates it once at construction).
    """
    return compute_access_structure_batch_candidates([layout], matrix)


def resolve_prefetch_setting_batch(
    structures: AccessStructureBatch2D,
    matrix: ClassMatrix,
    system: SystemParameters,
) -> PrefetchSetting:
    """Resolve one layout's prefetch granules from its 1-row structure stack.

    The batched twin of :func:`~repro.costmodel.resolve_prefetch_setting`.
    """
    return resolve_prefetch_settings_batch_candidates(structures, matrix, system)[0]


def evaluate_workload_batch(
    layout: FragmentationLayout,
    structures: AccessStructureBatch2D,
    matrix: ClassMatrix,
    system: SystemParameters,
    prefetch: PrefetchSetting,
) -> WorkloadEvaluation:
    """Evaluate one candidate against the whole mix, batched.

    The batched twin of :meth:`repro.costmodel.IOCostModel.evaluate` (with a
    resolved prefetch setting); ``structures`` is the layout's 1-row stack.
    """
    return evaluate_workload_batch_candidates(
        [layout], structures, matrix, system, [prefetch]
    )[0]
