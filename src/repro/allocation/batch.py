"""Batched disk allocation for the candidate-axis executor.

The candidate-vectorized sweep evaluates whole chunks of candidates as
(candidate × class) numpy batches, but allocation used to drop back to one
Python heap loop per candidate (:mod:`repro.allocation.greedy`).  This module
runs the same LPT placement over a padded (candidate × fragment) page matrix
for a whole chunk at once: per placement step, one ``argmin`` row picks the
least-occupied disk of *every* candidate simultaneously, so the interpreter
iterates ``max(fragment_count)`` times per chunk instead of
``sum(fragment_count)`` times.

Parity is exact, not approximate: the scalar heap pops ``(occupancy, disk)``
tuples — the minimum occupancy, lowest disk number first — which is precisely
``np.argmin`` over an occupancy row (first index of the minimum), and each
disk's occupancy accumulates the same floats in the same order, so every
intermediate double and every tie-break decision is bit-identical to
:func:`~repro.allocation.greedy.greedy_size_allocation`.  The scalar schemes
remain the reference implementation; the parity suite asserts field-by-field
equality.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.allocation.chooser import NOTABLE_SKEW_CV
from repro.allocation.placement import Allocation, fragment_total_pages
from repro.allocation.round_robin import round_robin_allocation
from repro.bitmap import BitmapScheme
from repro.errors import AllocationError
from repro.fragmentation import FragmentationLayout
from repro.storage import SystemParameters

__all__ = [
    "lpt_assignments",
    "batched_greedy_size_allocation",
    "choose_allocations_batch",
]


def lpt_assignments(
    pages_list: Sequence[np.ndarray], num_disks: int
) -> List[np.ndarray]:
    """LPT disk assignments for many independent fragment-size vectors.

    For each entry of ``pages_list`` (one candidate's per-fragment page
    counts) this computes the same assignment the scalar heap produces: visit
    fragments by decreasing size (stable order on ties) and place each on the
    currently least-occupied disk, ties towards the lower disk number.  All
    candidates advance in lockstep over a padded (candidate × fragment)
    matrix; rows shorter than the widest candidate add zero occupancy in
    their padded steps, which leaves their accumulated doubles untouched.
    """
    if num_disks < 1:
        raise AllocationError(f"need at least one disk, got {num_disks}")
    n = len(pages_list)
    if n == 0:
        return []
    counts = np.fromiter((len(pages) for pages in pages_list), dtype=np.int64, count=n)
    max_fragments = int(counts.max())
    if max_fragments == 0:
        return [np.empty(0, dtype=np.int64) for _ in range(n)]

    # Pad with -1.0: page counts are non-negative, so under the descending
    # (stable argsort of the negated matrix) order every pad sorts strictly
    # after every real fragment and the real prefix matches the scalar
    # ``np.argsort(-pages, kind="stable")`` exactly.
    padded = np.full((n, max_fragments), -1.0, dtype=np.float64)
    for i, pages in enumerate(pages_list):
        padded[i, : len(pages)] = pages
    order = np.argsort(-padded, axis=1, kind="stable")
    # Step-major increments; a pad adds +0.0, which leaves the row's
    # accumulated doubles untouched.
    increments = np.maximum(np.take_along_axis(padded, order, axis=1), 0.0).T.copy()
    del padded

    occupancy = np.zeros((n, num_disks), dtype=np.float64)
    chosen = np.empty((max_fragments, n), dtype=np.int64)
    rows = np.arange(n)
    for step in range(max_fragments):
        # First index of the row minimum == (min occupancy, min disk), the
        # scalar heap's pop order.
        disks = occupancy.argmin(axis=1)
        chosen[step] = disks
        occupancy[rows, disks] += increments[step]

    assignments: List[np.ndarray] = []
    for i in range(n):
        count = int(counts[i])
        assignment = np.empty(count, dtype=np.int64)
        assignment[order[i, :count]] = chosen[:count, i]
        assignments.append(assignment)
    return assignments


def batched_greedy_size_allocation(
    layouts: Sequence[FragmentationLayout],
    system: SystemParameters,
    bitmap_scheme: Optional[BitmapScheme] = None,
) -> List[Allocation]:
    """Greedy size-based allocations for many layouts in one batched pass.

    Bit-identical to calling
    :func:`~repro.allocation.greedy.greedy_size_allocation` per layout.
    """
    pages_list = [fragment_total_pages(layout, bitmap_scheme) for layout in layouts]
    assignments = lpt_assignments(pages_list, system.num_disks)
    return [
        Allocation(
            layout=layout,
            system=system,
            disk_of_fragment=assignment,
            fragment_pages=pages,
            scheme="greedy_size",
        )
        for layout, pages, assignment in zip(layouts, pages_list, assignments)
    ]


def choose_allocations_batch(
    layouts: Sequence[FragmentationLayout],
    system: SystemParameters,
    bitmap_scheme: Optional[BitmapScheme] = None,
    skew_threshold_cv: float = NOTABLE_SKEW_CV,
) -> List[Allocation]:
    """Scheme selection plus placement for a whole candidate chunk.

    The per-layout decision mirrors
    :func:`~repro.allocation.chooser.choose_allocation` exactly: layouts with
    a fragment-size CV above the threshold take the (batched) greedy scheme,
    the rest take logical round-robin (already a cheap ``arange``, so it runs
    per layout).
    """
    if skew_threshold_cv < 0:
        raise AllocationError(
            f"skew_threshold_cv must be non-negative, got {skew_threshold_cv}"
        )
    allocations: List[Optional[Allocation]] = [None] * len(layouts)
    greedy_positions: List[int] = []
    for i, layout in enumerate(layouts):
        if layout.fragment_size_cv > skew_threshold_cv:
            greedy_positions.append(i)
        else:
            allocations[i] = round_robin_allocation(layout, system, bitmap_scheme)
    if greedy_positions:
        batched = batched_greedy_size_allocation(
            [layouts[i] for i in greedy_positions], system, bitmap_scheme
        )
        for position, allocation in zip(greedy_positions, batched):
            allocations[position] = allocation
    return allocations  # type: ignore[return-value]
