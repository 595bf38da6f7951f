"""Logical round-robin allocation.

Fact-table and bitmap fragments are stored on disk "according to a logical
order of the fragmentation dimensions": fragments are enumerated in the
lexicographic (C-) order of their fragmentation attribute values and dealt to
the disks in turn.  Neighbouring fragments — which a hierarchically restricted
star query tends to touch together — therefore land on different disks, which
maximizes the I/O parallelism available to a single query.

The placement is a rule of the fragment index, so a round-robin allocation
keeps only the rule and derives its disk and page vectors on first read: a
candidate sweep ranks hundreds of round-robin candidates without building
the vectors of those nobody reads.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional

import numpy as np

from repro.allocation.placement import Allocation, fragment_total_pages
from repro.bitmap import BitmapScheme
from repro.errors import AllocationError
from repro.fragmentation import FragmentationLayout
from repro.storage import SystemParameters

__all__ = ["round_robin_allocation"]


class RoundRobinAllocation(Allocation):
    """A round-robin :class:`Allocation` whose vectors derive from its rule.

    Fragment ``i`` lies on disk ``(i + start_disk) % num_disks`` and is
    charged :func:`~repro.allocation.fragment_total_pages`; each vector is
    built on its first read and kept.
    """

    def __init__(
        self,
        layout: FragmentationLayout,
        system: SystemParameters,
        bitmap_scheme: Optional[BitmapScheme],
        start_disk: int,
    ) -> None:
        if not 0 <= start_disk < system.num_disks:
            raise AllocationError(
                f"start_disk {start_disk} out of range [0, {system.num_disks})"
            )
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "scheme", "round_robin")
        self._bitmap_scheme = bitmap_scheme
        self._start_disk = start_disk

    @cached_property
    def disk_of_fragment(self) -> np.ndarray:  # type: ignore[override]
        count = self.layout.fragment_count
        return (np.arange(count, dtype=np.int64) + self._start_disk) % self.num_disks

    @cached_property
    def fragment_pages(self) -> np.ndarray:  # type: ignore[override]
        return fragment_total_pages(self.layout, self._bitmap_scheme)


def round_robin_allocation(
    layout: FragmentationLayout,
    system: SystemParameters,
    bitmap_scheme: Optional[BitmapScheme] = None,
    start_disk: int = 0,
) -> Allocation:
    """Place the fragments of ``layout`` round-robin over the system's disks.

    Parameters
    ----------
    layout:
        The fragmentation layout to place.
    system:
        Target system (number of disks).
    bitmap_scheme:
        Bitmap indexes co-located with the fact fragments; their pages are
        charged to the same disk.
    start_disk:
        Disk receiving the first fragment (useful to stagger multiple fact
        tables over the same disk pool).
    """
    return RoundRobinAllocation(layout, system, bitmap_scheme, start_disk)
