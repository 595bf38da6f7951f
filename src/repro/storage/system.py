"""Database system parameters and parallel architectures.

WARLOCK targets parallel data warehouses based on a Shared Everything (SE) or
Shared Disk (SD) architecture.  In both, every processing node can reach every
disk, so the data allocation problem is the same; what differs is the
coordination overhead the cost model charges per parallel sub-query and the
degree of processing parallelism available.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Union

from repro.errors import StorageError
from repro.storage.disk import DiskParameters

__all__ = ["Architecture", "SystemParameters", "MAX_DISKS"]

#: Largest accepted ``num_disks``.  The evaluation keeps per-disk state — the
#: LPT heap holds one entry per disk and a batched sweep one candidates x
#: disks occupancy plane — so the count a request may ask for is bounded well
#: above every shipped scenario (the disk-scaling benchmark stops at 256).
MAX_DISKS = 4096


class Architecture(enum.Enum):
    """Parallel database architecture supported by WARLOCK."""

    SHARED_EVERYTHING = "shared_everything"
    SHARED_DISK = "shared_disk"

    @property
    def label(self) -> str:
        """Human readable label used in reports."""
        return {
            Architecture.SHARED_EVERYTHING: "Shared Everything",
            Architecture.SHARED_DISK: "Shared Disk",
        }[self]

    @classmethod
    def parse(cls, value: Union[str, "Architecture"]) -> "Architecture":
        """Parse an architecture from a string (``"SE"``, ``"SD"``, full names...)."""
        if isinstance(value, Architecture):
            return value
        text = str(value).strip().lower().replace("-", "_").replace(" ", "_")
        aliases = {
            "se": cls.SHARED_EVERYTHING,
            "shared_everything": cls.SHARED_EVERYTHING,
            "sharedeverything": cls.SHARED_EVERYTHING,
            "smp": cls.SHARED_EVERYTHING,
            "sd": cls.SHARED_DISK,
            "shared_disk": cls.SHARED_DISK,
            "shareddisk": cls.SHARED_DISK,
            "cluster": cls.SHARED_DISK,
        }
        if text not in aliases:
            raise StorageError(
                f"unknown architecture {value!r}; expected one of "
                f"'shared_everything'/'SE' or 'shared_disk'/'SD'"
            )
        return aliases[text]


#: Sentinel accepted for the ``prefetch_pages`` parameters meaning "let the
#: advisor optimize the granule" (the paper: "WARLOCK offers the choice to set a
#: fixed value or to determine itself optimal values").
AUTO = "auto"


@dataclass(frozen=True)
class SystemParameters:
    """The complete DBS & disk parameter block of the input layer.

    Parameters
    ----------
    num_disks:
        Number of disks data may be declustered over: an integer from 1 to
        :data:`MAX_DISKS`.
    disk:
        Per-disk physical characteristics.
    page_size_bytes:
        Database page size in bytes.
    architecture:
        Shared Everything or Shared Disk.
    num_nodes:
        Processing nodes.  Defaults to one node per 8 disks (at least 1) which
        matches typical SD cluster sizing; only response-time coordination
        overheads depend on it.
    prefetch_pages_fact / prefetch_pages_bitmap:
        Prefetch granule (in pages) used when reading fact-table respectively
        bitmap fragments.  Either an integer number of pages or the string
        ``"auto"`` to let the advisor derive an optimal value per fragmentation
        (fragment sizes of fact tables and bitmaps strongly differ, hence the
        two independent settings).
    coordination_overhead_ms:
        Per-parallel-subquery startup/coordination cost charged by the response
        time model; Shared Disk systems typically pay more than Shared
        Everything ones.
    """

    num_disks: int = 64
    disk: DiskParameters = field(default_factory=DiskParameters)
    page_size_bytes: int = 8192
    architecture: Architecture = Architecture.SHARED_DISK
    num_nodes: Optional[int] = None
    prefetch_pages_fact: Union[int, str] = AUTO
    prefetch_pages_bitmap: Union[int, str] = AUTO
    coordination_overhead_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if (
            isinstance(self.num_disks, bool)
            or not isinstance(self.num_disks, int)
            or not 1 <= self.num_disks <= MAX_DISKS
        ):
            raise StorageError(
                f"num_disks must be an integer from 1 to {MAX_DISKS}, "
                f"got {self.num_disks!r}"
            )
        if self.page_size_bytes <= 0:
            raise StorageError(
                f"page_size_bytes must be positive, got {self.page_size_bytes}"
            )
        if not isinstance(self.disk, DiskParameters):
            raise StorageError(
                f"disk must be a DiskParameters instance, got {type(self.disk).__name__}"
            )
        architecture = Architecture.parse(self.architecture)
        object.__setattr__(self, "architecture", architecture)
        for attr in ("prefetch_pages_fact", "prefetch_pages_bitmap"):
            value = getattr(self, attr)
            if isinstance(value, str):
                if value.lower() != AUTO:
                    raise StorageError(
                        f"{attr} must be a positive integer or 'auto', got {value!r}"
                    )
                object.__setattr__(self, attr, AUTO)
            elif isinstance(value, bool) or not isinstance(value, int) or value <= 0:
                raise StorageError(
                    f"{attr} must be a positive integer or 'auto', got {value!r}"
                )
        if self.num_nodes is not None and self.num_nodes <= 0:
            raise StorageError(f"num_nodes must be positive, got {self.num_nodes}")
        if self.coordination_overhead_ms is not None and self.coordination_overhead_ms < 0:
            raise StorageError(
                "coordination_overhead_ms must be non-negative, "
                f"got {self.coordination_overhead_ms}"
            )

    # -- derived quantities ---------------------------------------------------

    @property
    def effective_num_nodes(self) -> int:
        """Processing nodes available for parallel query execution."""
        if self.num_nodes is not None:
            return self.num_nodes
        return max(1, self.num_disks // 8)

    @property
    def effective_coordination_overhead_ms(self) -> float:
        """Per-subquery coordination cost; SD pays more than SE by default."""
        if self.coordination_overhead_ms is not None:
            return self.coordination_overhead_ms
        if self.architecture is Architecture.SHARED_DISK:
            return 2.0
        return 0.5

    @property
    def fact_prefetch_is_auto(self) -> bool:
        """True when the fact-table prefetch granule should be optimized."""
        return self.prefetch_pages_fact == AUTO

    @property
    def bitmap_prefetch_is_auto(self) -> bool:
        """True when the bitmap prefetch granule should be optimized."""
        return self.prefetch_pages_bitmap == AUTO

    @property
    def total_capacity_bytes(self) -> int:
        """Aggregate capacity of all disks."""
        return self.num_disks * self.disk.capacity_bytes

    @property
    def total_capacity_pages(self) -> int:
        """Aggregate capacity of all disks in pages."""
        return self.num_disks * self.disk.capacity_pages(self.page_size_bytes)

    def pages_for_bytes(self, num_bytes: int) -> int:
        """Number of pages needed to store ``num_bytes``."""
        if num_bytes < 0:
            raise StorageError(f"num_bytes must be non-negative, got {num_bytes}")
        if num_bytes == 0:
            return 0
        return -(-num_bytes // self.page_size_bytes)

    def with_disks(self, num_disks: int) -> "SystemParameters":
        """A copy of these parameters with a different number of disks."""
        return SystemParameters(
            num_disks=num_disks,
            disk=self.disk,
            page_size_bytes=self.page_size_bytes,
            architecture=self.architecture,
            num_nodes=self.num_nodes,
            prefetch_pages_fact=self.prefetch_pages_fact,
            prefetch_pages_bitmap=self.prefetch_pages_bitmap,
            coordination_overhead_ms=self.coordination_overhead_ms,
        )

    def with_architecture(self, architecture: Union[str, Architecture]) -> "SystemParameters":
        """A copy of these parameters with a different architecture."""
        return SystemParameters(
            num_disks=self.num_disks,
            disk=self.disk,
            page_size_bytes=self.page_size_bytes,
            architecture=Architecture.parse(architecture),
            num_nodes=self.num_nodes,
            prefetch_pages_fact=self.prefetch_pages_fact,
            prefetch_pages_bitmap=self.prefetch_pages_bitmap,
            coordination_overhead_ms=self.coordination_overhead_ms,
        )

    def with_prefetch(
        self,
        fact: Union[int, str, None] = None,
        bitmap: Union[int, str, None] = None,
    ) -> "SystemParameters":
        """A copy of these parameters with different prefetch granules."""
        return SystemParameters(
            num_disks=self.num_disks,
            disk=self.disk,
            page_size_bytes=self.page_size_bytes,
            architecture=self.architecture,
            num_nodes=self.num_nodes,
            prefetch_pages_fact=(
                self.prefetch_pages_fact if fact is None else fact
            ),
            prefetch_pages_bitmap=(
                self.prefetch_pages_bitmap if bitmap is None else bitmap
            ),
            coordination_overhead_ms=self.coordination_overhead_ms,
        )

    def describe(self) -> str:
        """Human-readable summary used by reports and the CLI."""
        fact_pref = (
            "auto" if self.fact_prefetch_is_auto else f"{self.prefetch_pages_fact} pages"
        )
        bitmap_pref = (
            "auto"
            if self.bitmap_prefetch_is_auto
            else f"{self.prefetch_pages_bitmap} pages"
        )
        return (
            f"{self.architecture.label}, {self.num_disks} disks x "
            f"{self.disk.capacity_gb:g} GB, page size {self.page_size_bytes} B, "
            f"seek {self.disk.avg_seek_ms:g} ms, rotation "
            f"{self.disk.avg_rotational_ms:g} ms, transfer "
            f"{self.disk.transfer_mb_per_s:g} MB/s, prefetch fact={fact_pref}, "
            f"bitmap={bitmap_pref}"
        )
