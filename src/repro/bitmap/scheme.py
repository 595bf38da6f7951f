"""Bitmap scheme design.

A *bitmap scheme* is the set of bitmap join indexes WARLOCK recommends for one
fragmentation candidate.  The heuristic follows the paper: create an index for
every dimension attribute the query mix restricts, using standard bitmaps for
low-cardinality attributes and (hierarchically) encoded bitmaps for
high-cardinality attributes.  The DBA may exclude individual indexes to limit
space requirements; the scheme object supports this interactively.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple

from repro.errors import BitmapError
from repro.schema import StarSchema
from repro.workload import QueryMix
from repro.bitmap.index import BitmapIndex

__all__ = ["BitmapScheme", "design_bitmap_scheme"]

#: Default cardinality above which the heuristic switches from standard to
#: encoded bitmaps.  The value is deliberately conservative: a standard bitmap
#: index on a 64-value attribute stores 8 bytes per fact row.
DEFAULT_CARDINALITY_THRESHOLD = 64


@dataclass(frozen=True)
class BitmapScheme:
    """An immutable collection of bitmap indexes keyed by (dimension, level)."""

    indexes: Tuple[BitmapIndex, ...]

    def __init__(self, indexes: Sequence[BitmapIndex] = ()) -> None:
        indexes = tuple(indexes)
        keys = [(index.dimension, index.level) for index in indexes]
        if len(set(keys)) != len(keys):
            raise BitmapError(f"duplicate bitmap indexes in scheme: {keys}")
        object.__setattr__(self, "indexes", indexes)

    # -- access -----------------------------------------------------------------

    def __iter__(self) -> Iterator[BitmapIndex]:
        return iter(self.indexes)

    def __len__(self) -> int:
        return len(self.indexes)

    @property
    def is_empty(self) -> bool:
        """True when the scheme contains no index (all access is scan-based)."""
        return not self.indexes

    def index_for(self, dimension: str, level: str) -> Optional[BitmapIndex]:
        """The index on ``dimension.level``, or ``None`` when absent."""
        for index in self.indexes:
            if index.dimension == dimension and index.level == level:
                return index
        return None

    def indexes_on(self, dimension: str) -> Tuple[BitmapIndex, ...]:
        """All indexes on attributes of ``dimension``."""
        return tuple(index for index in self.indexes if index.dimension == dimension)

    def as_mapping(self) -> Dict[Tuple[str, str], BitmapIndex]:
        """Mapping view keyed by ``(dimension, level)``."""
        return {(index.dimension, index.level): index for index in self.indexes}

    # -- space accounting ----------------------------------------------------------

    @cached_property
    def total_storage_bits_per_row(self) -> int:
        """Bits stored per fact row across all indexes (computed once)."""
        return sum(index.storage_bits_per_row for index in self.indexes)

    def storage_bytes(self, row_count: float) -> float:
        """Total bitmap storage for ``row_count`` fact rows, in bytes."""
        return sum(index.storage_bytes(row_count) for index in self.indexes)

    def storage_pages(self, row_count: float, page_size_bytes: int) -> int:
        """Total bitmap storage for ``row_count`` fact rows, in pages."""
        return sum(
            index.storage_pages(row_count, page_size_bytes) for index in self.indexes
        )

    # -- interactive fine-tuning -----------------------------------------------------

    def without(self, *attributes: Tuple[str, str]) -> "BitmapScheme":
        """A copy of the scheme with the given ``(dimension, level)`` indexes removed.

        This models the paper's "the user may decide to exclude some of the
        suggested bitmap indices to limit space requirements".
        """
        keys = set(attributes)
        known = {(index.dimension, index.level) for index in self.indexes}
        unknown = keys - known
        if unknown:
            raise BitmapError(f"cannot exclude unknown bitmap indexes: {sorted(unknown)}")
        return BitmapScheme(
            [
                index
                for index in self.indexes
                if (index.dimension, index.level) not in keys
            ]
        )

    def restricted_to(self, dimensions: Iterable[str]) -> "BitmapScheme":
        """A copy keeping only indexes on the given dimensions."""
        wanted = set(dimensions)
        return BitmapScheme(
            [index for index in self.indexes if index.dimension in wanted]
        )

    # -- presentation -----------------------------------------------------------------

    def describe(self) -> str:
        """Multi-line summary (one line per index)."""
        if not self.indexes:
            return "Bitmap scheme: (none)"
        lines = ["Bitmap scheme:"]
        lines.extend(f"  {index.describe()}" for index in self.indexes)
        lines.append(
            f"  total: {self.total_storage_bits_per_row} bit(s) per fact row"
        )
        return "\n".join(lines)


def design_bitmap_scheme(
    schema: StarSchema,
    workload: QueryMix,
    fact_table: Optional[str] = None,
    cardinality_threshold: int = DEFAULT_CARDINALITY_THRESHOLD,
    exclude: Sequence[Tuple[str, str]] = (),
) -> BitmapScheme:
    """Design the bitmap scheme for a schema/workload pair.

    One bitmap join index is proposed for every dimension attribute the query
    mix restricts (restricting access paths to attributes the workload actually
    uses keeps space bounded).  Attributes whose cardinality does not exceed
    ``cardinality_threshold`` get standard bitmaps; the others get encoded
    bitmaps.  ``exclude`` removes individual ``(dimension, level)`` attributes
    up front, mirroring the interactive exclusion the paper describes.
    """
    fact = schema.fact_table(fact_table)
    excluded = set(exclude)
    seen = set()
    indexes = []
    for query_class in workload:
        for restriction in query_class.restrictions:
            key = (restriction.dimension, restriction.level)
            if key in seen or key in excluded:
                continue
            if restriction.dimension not in fact.dimension_names:
                continue
            seen.add(key)
            indexes.append(
                BitmapIndex.for_attribute(
                    schema,
                    dimension=restriction.dimension,
                    level=restriction.level,
                    cardinality_threshold=cardinality_threshold,
                )
            )
    indexes.sort(key=lambda index: (index.dimension, index.level))
    return BitmapScheme(indexes)
