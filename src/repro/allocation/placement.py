"""Allocation objects: the mapping from fragments to disks.

An :class:`Allocation` records, for every fragment of a fragmentation layout,
the disk it is stored on.  Bitmap fragments follow the fact-table fragment they
belong to (the paper: "bitmap fragmentation exactly follows the fact table
fragmentation"), so a single assignment vector covers both, and the occupancy
accounting simply adds the bitmap pages of a fragment to its fact pages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional, Sequence

import numpy as np

from repro.bitmap import BitmapScheme
from repro.errors import AllocationError
from repro.fragmentation import FragmentationLayout
from repro.skew import coefficient_of_variation
from repro.storage import SystemParameters

__all__ = ["fragment_total_pages", "Allocation"]


def fragment_total_pages(
    layout: FragmentationLayout, bitmap_scheme: Optional[BitmapScheme] = None
) -> np.ndarray:
    """Fact plus bitmap pages of every fragment of ``layout``.

    Bitmap storage is charged per fragment because bitmap fragments are
    co-located with their fact fragment.
    """
    pages = layout.fragment_fact_pages.astype(np.float64)
    if bitmap_scheme is not None and not bitmap_scheme.is_empty:
        bits_per_row = bitmap_scheme.total_storage_bits_per_row
        bitmap_bytes = layout.fragment_rows * bits_per_row / 8.0
        bitmap_pages = np.ceil(bitmap_bytes / layout.page_size_bytes)
        pages = pages + bitmap_pages
    return pages


@dataclass(frozen=True)
class Allocation:
    """A placement of every fragment (fact + bitmaps) onto a disk.

    Parameters
    ----------
    layout:
        The fragmentation layout being placed.
    system:
        System parameters (number of disks, capacities).
    disk_of_fragment:
        Integer array, one entry per fragment (flat index order), holding the
        disk number in ``[0, system.num_disks)``.
    fragment_pages:
        Pages charged per fragment (fact plus co-located bitmap pages):
        finite and non-negative.
    scheme:
        Name of the allocation scheme that produced the placement
        (``"round_robin"`` or ``"greedy_size"``).

    Construction validates both vectors and raises
    :class:`~repro.errors.AllocationError` on any that does not fit the
    layout and system.  A round-robin placement
    (:func:`~repro.allocation.round_robin_allocation`) derives its vectors
    from its rule on first read instead.
    """

    layout: FragmentationLayout
    system: SystemParameters
    disk_of_fragment: np.ndarray
    fragment_pages: np.ndarray
    scheme: str

    def __post_init__(self) -> None:
        assignment = np.asarray(self.disk_of_fragment)
        pages = np.asarray(self.fragment_pages, dtype=np.float64)
        if assignment.shape != (self.layout.fragment_count,):
            raise AllocationError(
                f"disk assignment has {assignment.shape[0] if assignment.ndim else 0} "
                f"entries but the layout has {self.layout.fragment_count} fragments"
            )
        if pages.shape != (self.layout.fragment_count,):
            raise AllocationError(
                f"fragment_pages has {pages.shape[0] if pages.ndim else 0} entries "
                f"but the layout has {self.layout.fragment_count} fragments"
            )
        if assignment.dtype.kind not in "iu":
            raise AllocationError(
                f"disk assignment must hold integer disk ids, got {assignment.dtype}"
            )
        assignment = assignment.astype(np.int64, copy=False)
        if assignment.size and (assignment.min() < 0 or assignment.max() >= self.system.num_disks):
            raise AllocationError(
                f"disk assignment contains disks outside [0, {self.system.num_disks})"
            )
        # NaN fails both comparisons, so one test rejects NaN, infinities
        # and negative counts.
        if not np.all((pages >= 0) & (pages < np.inf)):
            raise AllocationError("fragment page counts must be finite and non-negative")
        object.__setattr__(self, "disk_of_fragment", assignment)
        object.__setattr__(self, "fragment_pages", pages)

    # -- basic accessors ---------------------------------------------------------

    @property
    def num_disks(self) -> int:
        """Number of disks in the target configuration."""
        return self.system.num_disks

    def disk_of(self, fragment_index: int) -> int:
        """Disk holding the fragment with the given flat index."""
        if not 0 <= fragment_index < self.layout.fragment_count:
            raise AllocationError(
                f"fragment index {fragment_index} out of range "
                f"[0, {self.layout.fragment_count})"
            )
        return int(self.disk_of_fragment[fragment_index])

    def fragments_on(self, disk: int) -> np.ndarray:
        """Flat indices of the fragments stored on ``disk``."""
        if not 0 <= disk < self.num_disks:
            raise AllocationError(f"disk {disk} out of range [0, {self.num_disks})")
        return np.nonzero(self.disk_of_fragment == disk)[0]

    # -- occupancy ------------------------------------------------------------------

    @cached_property
    def occupancy_pages(self) -> np.ndarray:
        """Pages stored on each disk (fact plus bitmap pages)."""
        occupancy = np.zeros(self.num_disks, dtype=np.float64)
        np.add.at(occupancy, self.disk_of_fragment, self.fragment_pages)
        return occupancy

    @cached_property
    def fragments_per_disk(self) -> np.ndarray:
        """Number of fragments stored on each disk."""
        counts = np.zeros(self.num_disks, dtype=np.int64)
        np.add.at(counts, self.disk_of_fragment, 1)
        return counts

    @property
    def total_pages(self) -> float:
        """Total pages placed (all disks)."""
        return float(self.fragment_pages.sum())

    @property
    def max_occupancy_pages(self) -> float:
        """Pages on the most loaded disk."""
        return float(self.occupancy_pages.max())

    @property
    def min_occupancy_pages(self) -> float:
        """Pages on the least loaded disk."""
        return float(self.occupancy_pages.min())

    @property
    def occupancy_cv(self) -> float:
        """Coefficient of variation of per-disk occupancy (0 = perfectly balanced)."""
        return coefficient_of_variation(self.occupancy_pages.tolist())

    @property
    def occupancy_imbalance(self) -> float:
        """Max over mean occupancy ratio (1.0 = perfectly balanced)."""
        mean = self.occupancy_pages.mean()
        if mean == 0:
            return 1.0
        return float(self.max_occupancy_pages / mean)

    def fits_capacity(self) -> bool:
        """True when the most loaded disk stays within the disk capacity."""
        capacity_pages = self.system.disk.capacity_pages(self.system.page_size_bytes)
        return self.max_occupancy_pages <= capacity_pages

    # -- access distribution -----------------------------------------------------------

    def access_distribution(
        self,
        fragment_indices: Sequence[int],
        pages_per_fragment: Optional[Sequence[float]] = None,
    ) -> np.ndarray:
        """Pages read from each disk when the given fragments are accessed.

        Parameters
        ----------
        fragment_indices:
            Flat indices of the accessed fragments.
        pages_per_fragment:
            Pages read from each accessed fragment.  Defaults to the stored
            fragment page counts (a full-fragment read).
        """
        indices = np.asarray(list(fragment_indices), dtype=np.int64)
        if indices.size and (
            indices.min() < 0 or indices.max() >= self.layout.fragment_count
        ):
            raise AllocationError("accessed fragment index out of range")
        if pages_per_fragment is None:
            pages = self.fragment_pages[indices]
        else:
            pages = np.asarray(list(pages_per_fragment), dtype=np.float64)
            if pages.shape != indices.shape:
                raise AllocationError(
                    "pages_per_fragment must match fragment_indices in length"
                )
        distribution = np.zeros(self.num_disks, dtype=np.float64)
        if indices.size:
            np.add.at(distribution, self.disk_of_fragment[indices], pages)
        return distribution

    # -- presentation ----------------------------------------------------------------------

    def occupancy_summary(self) -> Dict[str, float]:
        """Key occupancy statistics as a plain dict (for reports / JSON)."""
        return {
            "scheme": self.scheme,
            "num_disks": float(self.num_disks),
            "total_pages": self.total_pages,
            "max_occupancy_pages": self.max_occupancy_pages,
            "min_occupancy_pages": self.min_occupancy_pages,
            "occupancy_cv": self.occupancy_cv,
            "occupancy_imbalance": self.occupancy_imbalance,
        }

    def describe(self) -> str:
        """Human-readable occupancy summary."""
        return (
            f"{self.scheme} allocation over {self.num_disks} disks: "
            f"{self.total_pages:,.0f} pages total, per-disk "
            f"{self.min_occupancy_pages:,.0f}..{self.max_occupancy_pages:,.0f} pages, "
            f"CV {self.occupancy_cv:.4f}, imbalance "
            f"{self.occupancy_imbalance:.3f}"
        )

    # -- capacity planning ------------------------------------------------------------------

    def disks_needed_for_capacity(self) -> int:
        """Minimum number of identical disks that could hold the placed data."""
        capacity_pages = self.system.disk.capacity_pages(self.system.page_size_bytes)
        if capacity_pages <= 0:
            raise AllocationError("disk capacity is zero pages")
        return max(1, int(math.ceil(self.total_pages / capacity_pages)))
