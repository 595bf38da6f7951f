"""Disk and database system parameter model (WARLOCK input layer, §3.1).

The DBA specifies page size, number of disks and their capacity, average
rotational / seek / transfer times and the prefetching granule.  The prefetch
granule may be fixed or left to WARLOCK to optimize per object class (fact
table fragments vs. bitmap fragments), which :mod:`repro.storage.prefetch`
implements.
"""

from repro.storage.disk import DiskParameters
from repro.storage.prefetch import (
    PrefetchPolicy,
    PrefetchSetting,
    optimal_prefetch_pages,
    prefetch_candidates,
)
from repro.storage.system import MAX_DISKS, Architecture, SystemParameters

__all__ = [
    "DiskParameters",
    "Architecture",
    "SystemParameters",
    "MAX_DISKS",
    "PrefetchPolicy",
    "PrefetchSetting",
    "optimal_prefetch_pages",
    "prefetch_candidates",
]
