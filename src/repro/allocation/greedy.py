"""Greedy size-based allocation.

Under notable data skew the fragment sizes differ widely and a round-robin
placement can leave disks unevenly occupied.  The greedy scheme therefore
considers fragments ordered by decreasing size and stores each on the currently
least-occupied disk (classic LPT / longest-processing-time placement), which
keeps disk occupancy balanced.
"""

from __future__ import annotations

import heapq
from typing import Optional

import numpy as np

from repro.allocation.placement import Allocation, fragment_total_pages
from repro.bitmap import BitmapScheme
from repro.fragmentation import FragmentationLayout
from repro.storage import SystemParameters

__all__ = ["greedy_size_allocation", "lpt_assignment"]


def lpt_assignment(pages: np.ndarray, num_disks: int) -> np.ndarray:
    """The disk of every fragment of ``pages`` (per-fragment page counts).

    Fragments by decreasing size (stable on ties) each go to the currently
    least-occupied disk, ties towards the lower disk number.
    """
    order = np.argsort(-pages, kind="stable")
    assignment = [0] * len(pages)

    # Min-heap of (occupancy, disk number); replacing the least occupied disk
    # by its updated occupancy keeps every placement O(log num_disks).  The
    # loop runs on Python ints and floats, not numpy scalars.
    heap = [(0.0, disk) for disk in range(num_disks)]
    heapq.heapify(heap)
    for fragment_index, size in zip(order.tolist(), pages[order].tolist()):
        occupancy, disk = heap[0]
        assignment[fragment_index] = disk
        heapq.heapreplace(heap, (occupancy + size, disk))
    return np.array(assignment, dtype=np.int64)


def greedy_size_allocation(
    layout: FragmentationLayout,
    system: SystemParameters,
    bitmap_scheme: Optional[BitmapScheme] = None,
) -> Allocation:
    """Place fragments by decreasing size onto the least occupied disk
    (:func:`lpt_assignment`)."""
    pages = fragment_total_pages(layout, bitmap_scheme)
    return Allocation(
        layout=layout,
        system=system,
        disk_of_fragment=lpt_assignment(pages, system.num_disks),
        fragment_pages=pages,
        scheme="greedy_size",
    )
