"""Batched disk allocation for the candidate-axis executor.

The candidate-vectorized sweep places all its greedy candidates together
instead of running one Python heap loop per candidate
(:mod:`repro.allocation.greedy`).  :func:`lpt_assignments` runs the same LPT
placement for many candidates in lockstep: per placement step, one
``argmin`` over a (candidate × disk) occupancy matrix picks the
least-occupied disk of *every* candidate still placing fragments, so the
interpreter iterates ``max(fragment_count)`` times per pass instead of
``sum(fragment_count)`` times.  :func:`batched_greedy_size_allocation`
orders the candidates by width (fragment count) and cuts them into groups
of at most :data:`LPT_CELL_BUDGET` (candidate × fragment) cells, one pass
per group; the engine's sweep driver hands it every greedy survivor of a
sweep at once, so a sweep normally makes a single pass.  A group of one
candidate runs the heap loop (:func:`~repro.allocation.greedy.lpt_assignment`):
lockstep over one candidate takes as many steps, each several times dearer.

Parity is exact, not approximate: the scalar heap pops ``(occupancy, disk)``
tuples — the minimum occupancy, lowest disk number first — which is precisely
``np.argmin`` over an occupancy row (first index of the minimum), and each
disk's occupancy accumulates the same floats in the same order, so every
intermediate double and every tie-break decision is bit-identical to
:func:`~repro.allocation.greedy.greedy_size_allocation`, whatever the
grouping.  The scalar schemes remain the reference implementation; the
parity suite asserts field-by-field equality.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.allocation.chooser import NOTABLE_SKEW_CV
from repro.allocation.greedy import lpt_assignment
from repro.allocation.placement import Allocation, fragment_total_pages
from repro.allocation.round_robin import round_robin_allocation
from repro.bitmap import BitmapScheme
from repro.errors import AllocationError
from repro.fragmentation import FragmentationLayout
from repro.storage import SystemParameters

__all__ = [
    "LPT_CELL_BUDGET",
    "lpt_assignments",
    "batched_greedy_size_allocation",
    "choose_allocations_batch",
]

#: (candidate × fragment) cells one LPT pass may span: its candidate count
#: times its widest candidate's fragment count.  A pass holds two planes of
#: that shape (8 bytes a cell each), so the budget caps a pass at 16 MiB.
#: It is sized so that the greedy survivors of a large skewed sweep — the
#: FULL synthetic warehouse's 162, at most 4,032 fragments wide, 653,184
#: cells — take one pass.
LPT_CELL_BUDGET = 1 << 20


def lpt_assignments(
    pages_list: Sequence[np.ndarray], num_disks: int
) -> List[np.ndarray]:
    """LPT disk assignments for many independent fragment-size vectors.

    For each entry of ``pages_list`` (one candidate's per-fragment page
    counts) this computes the same assignment the scalar heap produces: visit
    fragments by decreasing size (stable order on ties) and place each on the
    currently least-occupied disk, ties towards the lower disk number.  All
    candidates advance in lockstep, widest first: at step ``s`` the
    candidates with more than ``s`` fragments are a prefix of that order, and
    only that prefix of the occupancy matrix takes the step.
    """
    if num_disks < 1:
        raise AllocationError(f"need at least one disk, got {num_disks}")
    n = len(pages_list)
    if n == 0:
        return []
    pages_list = [np.asarray(pages, dtype=np.float64) for pages in pages_list]
    counts = np.fromiter((len(pages) for pages in pages_list), dtype=np.int64, count=n)
    # Widest first (stable); ``slot`` is a candidate's row in this order.
    rows = np.argsort(-counts, kind="stable")
    widths = counts[rows]
    max_fragments = int(widths[0])
    if max_fragments == 0:
        return [np.empty(0, dtype=np.int64) for _ in range(n)]

    # Each candidate's visiting order, as the scalar heap loop computes it,
    # and the step-major (step × slot) page increments; steps past a
    # candidate's width are never taken.
    orders = [np.argsort(-pages, kind="stable") for pages in pages_list]
    increments = np.zeros((max_fragments, n), dtype=np.float64)
    for slot, row in enumerate(rows.tolist()):
        increments[: widths[slot], slot] = pages_list[row][orders[row]]
    # Candidates still placing fragments at each step: those wider than it.
    live = np.searchsorted(-widths, -np.arange(max_fragments), side="left").tolist()

    occupancy = np.zeros((n, num_disks), dtype=np.float64)
    cells = occupancy.reshape(-1)
    row_starts = np.arange(n) * num_disks
    chosen = np.empty((max_fragments, n), dtype=np.int64)
    for step, active in enumerate(live):
        disks = chosen[step, :active]
        # First index of the row minimum == (min occupancy, min disk), the
        # scalar heap's pop order.
        occupancy[:active].argmin(axis=1, out=disks)
        cells[row_starts[:active] + disks] += increments[step, :active]

    assignments: List[np.ndarray] = [np.empty(0, dtype=np.int64)] * n
    for slot, row in enumerate(rows.tolist()):
        assignment = np.empty(int(widths[slot]), dtype=np.int64)
        assignment[orders[row]] = chosen[: widths[slot], slot]
        assignments[row] = assignment
    return assignments


def _width_groups(widths: Sequence[int]) -> List[List[int]]:
    """Positions of ``widths``, widest first, cut into LPT passes.

    A group grows while its size times its first (widest) member's width
    stays within :data:`LPT_CELL_BUDGET`; a candidate wider than the whole
    budget takes a pass of its own.
    """
    groups: List[List[int]] = []
    for position in sorted(range(len(widths)), key=lambda p: -widths[p]):
        if groups:
            group = groups[-1]
            if (len(group) + 1) * max(widths[group[0]], 1) <= LPT_CELL_BUDGET:
                group.append(position)
                continue
        groups.append([position])
    return groups


def batched_greedy_size_allocation(
    layouts: Sequence[FragmentationLayout],
    system: SystemParameters,
    bitmap_scheme: Optional[BitmapScheme] = None,
) -> List[Allocation]:
    """Greedy size-based allocations for many layouts in one batched pass.

    Bit-identical to calling
    :func:`~repro.allocation.greedy.greedy_size_allocation` per layout.  The
    layouts are placed widest first in passes of at most
    :data:`LPT_CELL_BUDGET` cells (one pass when they fit); a pass of one
    layout runs the scalar heap loop.
    """
    pages_list = [fragment_total_pages(layout, bitmap_scheme) for layout in layouts]
    assignments: List[np.ndarray] = [np.empty(0, dtype=np.int64)] * len(layouts)
    for group in _width_groups([len(pages) for pages in pages_list]):
        if len(group) == 1:
            placed = [lpt_assignment(pages_list[group[0]], system.num_disks)]
        else:
            placed = lpt_assignments([pages_list[p] for p in group], system.num_disks)
        for position, assignment in zip(group, placed):
            assignments[position] = assignment
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
    """Scheme selection plus placement for many candidates at once.

    The per-layout decision mirrors
    :func:`~repro.allocation.chooser.choose_allocation` exactly: layouts with
    a fragment-size CV above the threshold take the greedy scheme, placed
    together by :func:`batched_greedy_size_allocation`; the rest take logical
    round-robin, whose vectors are derived only when read.
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
