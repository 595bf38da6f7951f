"""Star schema objects: levels, dimensions, measures, fact tables, schemas.

The model mirrors the schema description WARLOCK's input layer asks the DBA
for: dimension hierarchies with per-level cardinalities, fact-table row counts
and row sizes, and optional Zipf-like skew at the bottom level of a dimension.

Hierarchies are strict: every level is a refinement of the level above it, so
cardinalities must be non-decreasing from the top (coarsest) level to the
bottom (finest) level, and each bottom-level value has exactly one ancestor at
every coarser level.  This containment property is what makes multi-dimensional
hierarchical fragmentation (MDHF) able to confine star-query work to a subset
of the fragments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, Tuple

from repro.errors import SchemaError
from repro.skew import SkewSpec

__all__ = ["Level", "Dimension", "Measure", "FactTable", "StarSchema"]


def _require_identifier(name: str, what: str) -> None:
    if not isinstance(name, str) or not name or not name.strip():
        raise SchemaError(f"{what} name must be a non-empty string, got {name!r}")


@dataclass(frozen=True)
class Level:
    """One level of a dimension hierarchy.

    Parameters
    ----------
    name:
        Attribute name of the level (for instance ``"month"``).
    cardinality:
        Number of distinct values at this level across the whole dimension.
    """

    name: str
    cardinality: int

    def __post_init__(self) -> None:
        _require_identifier(self.name, "level")
        if not isinstance(self.cardinality, int) or isinstance(self.cardinality, bool):
            raise SchemaError(
                f"cardinality of level {self.name!r} must be an int, "
                f"got {type(self.cardinality).__name__}"
            )
        if self.cardinality <= 0:
            raise SchemaError(
                f"cardinality of level {self.name!r} must be positive, "
                f"got {self.cardinality}"
            )


@dataclass(frozen=True)
class Dimension:
    """A denormalized, hierarchically organized dimension table.

    ``levels`` are ordered from the coarsest (top) to the finest (bottom) level,
    e.g. ``year -> quarter -> month -> day`` for a time dimension.  Skew, when
    present, applies to the bottom level per the WARLOCK input model.

    A dimension is immutable, so modules that derive values from it (such as
    :func:`repro.fragmentation.dimension_row_shares`) may memoize them in its
    private ``_memo`` dict, under keys they own.  The memo is not a field:
    equality, hashing and ``repr`` ignore it.
    """

    name: str
    levels: Tuple[Level, ...]
    skew: SkewSpec = field(default_factory=SkewSpec.none)
    row_size_bytes: int = 64

    def __init__(
        self,
        name: str,
        levels: Sequence[Level],
        skew: Optional[SkewSpec] = None,
        row_size_bytes: int = 64,
    ) -> None:
        _require_identifier(name, "dimension")
        levels = tuple(levels)
        if not levels:
            raise SchemaError(f"dimension {name!r} must define at least one level")
        seen = set()
        for level in levels:
            if not isinstance(level, Level):
                raise SchemaError(
                    f"dimension {name!r}: levels must be Level instances, "
                    f"got {type(level).__name__}"
                )
            if level.name in seen:
                raise SchemaError(
                    f"dimension {name!r}: duplicate level name {level.name!r}"
                )
            seen.add(level.name)
        for upper, lower in zip(levels, levels[1:]):
            if lower.cardinality < upper.cardinality:
                raise SchemaError(
                    f"dimension {name!r}: hierarchy cardinalities must be "
                    f"non-decreasing from top to bottom, but level "
                    f"{lower.name!r} ({lower.cardinality}) is smaller than "
                    f"{upper.name!r} ({upper.cardinality})"
                )
        if row_size_bytes <= 0:
            raise SchemaError(
                f"dimension {name!r}: row_size_bytes must be positive, "
                f"got {row_size_bytes}"
            )
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "skew", skew if skew is not None else SkewSpec.none())
        object.__setattr__(self, "row_size_bytes", row_size_bytes)
        # Created with the fields: adding an attribute later, or reading
        # ``__dict__``, would move every attribute read of this instance off
        # the interpreter's fast path (about 3x slower on CPython 3.11).
        object.__setattr__(self, "_memo", {})

    # -- navigation helpers -------------------------------------------------

    @property
    def level_names(self) -> Tuple[str, ...]:
        """Names of the levels, coarsest first."""
        return tuple(level.name for level in self.levels)

    @property
    def top_level(self) -> Level:
        """The coarsest level of the hierarchy."""
        return self.levels[0]

    @property
    def bottom_level(self) -> Level:
        """The finest level of the hierarchy (foreign key target of the fact table)."""
        return self.levels[-1]

    @property
    def cardinality(self) -> int:
        """Cardinality of the bottom level, i.e. the dimension's row count."""
        return self.bottom_level.cardinality

    def level(self, name: str) -> Level:
        """Return the level called ``name``.

        Raises
        ------
        SchemaError
            If no level of that name exists in the dimension.
        """
        for level in self.levels:
            if level.name == name:
                return level
        raise SchemaError(
            f"dimension {self.name!r} has no level {name!r}; "
            f"known levels: {', '.join(self.level_names)}"
        )

    def has_level(self, name: str) -> bool:
        """True when the dimension contains a level called ``name``."""
        return any(level.name == name for level in self.levels)

    def level_index(self, name: str) -> int:
        """Index of the level (0 = coarsest)."""
        for index, level in enumerate(self.levels):
            if level.name == name:
                return index
        raise SchemaError(f"dimension {self.name!r} has no level {name!r}")

    def is_coarser_or_equal(self, level_a: str, level_b: str) -> bool:
        """True when ``level_a`` is at or above ``level_b`` in the hierarchy."""
        return self.level_index(level_a) <= self.level_index(level_b)

    def fanout(self, coarse_level: str, fine_level: str) -> float:
        """Average number of ``fine_level`` values per ``coarse_level`` value.

        Raises
        ------
        SchemaError
            If ``coarse_level`` is actually finer than ``fine_level``.
        """
        coarse = self.level(coarse_level)
        fine = self.level(fine_level)
        if not self.is_coarser_or_equal(coarse_level, fine_level):
            raise SchemaError(
                f"dimension {self.name!r}: {coarse_level!r} is finer than "
                f"{fine_level!r}; fanout is only defined top-down"
            )
        return fine.cardinality / coarse.cardinality

    def size_bytes(self) -> int:
        """Approximate storage footprint of the denormalized dimension table."""
        return self.cardinality * self.row_size_bytes

    def __iter__(self) -> Iterator[Level]:
        return iter(self.levels)


@dataclass(frozen=True)
class Measure:
    """A measure attribute of a fact table (aggregation target)."""

    name: str
    size_bytes: int = 8

    def __post_init__(self) -> None:
        _require_identifier(self.name, "measure")
        if self.size_bytes <= 0:
            raise SchemaError(
                f"measure {self.name!r}: size_bytes must be positive, "
                f"got {self.size_bytes}"
            )


@dataclass(frozen=True)
class FactTable:
    """A fact table referencing the schema's dimensions by foreign key.

    ``row_size_bytes`` covers the foreign keys plus the measures; it is used to
    translate row counts into database pages.
    """

    name: str
    row_count: int
    row_size_bytes: int
    dimension_names: Tuple[str, ...]
    measures: Tuple[Measure, ...] = ()

    def __init__(
        self,
        name: str,
        row_count: int,
        row_size_bytes: int,
        dimension_names: Sequence[str],
        measures: Sequence[Measure] = (),
    ) -> None:
        _require_identifier(name, "fact table")
        if row_count <= 0:
            raise SchemaError(
                f"fact table {name!r}: row_count must be positive, got {row_count}"
            )
        if row_size_bytes <= 0:
            raise SchemaError(
                f"fact table {name!r}: row_size_bytes must be positive, "
                f"got {row_size_bytes}"
            )
        dimension_names = tuple(dimension_names)
        if not dimension_names:
            raise SchemaError(
                f"fact table {name!r} must reference at least one dimension"
            )
        if len(set(dimension_names)) != len(dimension_names):
            raise SchemaError(
                f"fact table {name!r}: duplicate dimension references "
                f"{dimension_names}"
            )
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "row_count", row_count)
        object.__setattr__(self, "row_size_bytes", row_size_bytes)
        object.__setattr__(self, "dimension_names", dimension_names)
        object.__setattr__(self, "measures", tuple(measures))

    def size_bytes(self) -> int:
        """Total raw size of the fact table."""
        return self.row_count * self.row_size_bytes

    def pages(self, page_size_bytes: int) -> int:
        """Number of database pages the fact table occupies."""
        if page_size_bytes <= 0:
            raise SchemaError(
                f"page_size_bytes must be positive, got {page_size_bytes}"
            )
        rows_per_page = max(1, page_size_bytes // self.row_size_bytes)
        return -(-self.row_count // rows_per_page)

    def rows_per_page(self, page_size_bytes: int) -> int:
        """Blocking factor: fact rows per database page."""
        if page_size_bytes <= 0:
            raise SchemaError(
                f"page_size_bytes must be positive, got {page_size_bytes}"
            )
        return max(1, page_size_bytes // self.row_size_bytes)


@dataclass(frozen=True)
class StarSchema:
    """A star schema: a set of dimensions plus one or more fact tables."""

    name: str
    dimensions: Tuple[Dimension, ...]
    fact_tables: Tuple[FactTable, ...]

    def __init__(
        self,
        name: str,
        dimensions: Sequence[Dimension],
        fact_tables: Sequence[FactTable],
    ) -> None:
        _require_identifier(name, "schema")
        dimensions = tuple(dimensions)
        fact_tables = tuple(fact_tables)
        if not dimensions:
            raise SchemaError(f"schema {name!r} must define at least one dimension")
        if not fact_tables:
            raise SchemaError(f"schema {name!r} must define at least one fact table")
        dim_names = [d.name for d in dimensions]
        if len(set(dim_names)) != len(dim_names):
            raise SchemaError(f"schema {name!r}: duplicate dimension names")
        fact_names = [f.name for f in fact_tables]
        if len(set(fact_names)) != len(fact_names):
            raise SchemaError(f"schema {name!r}: duplicate fact table names")
        known = set(dim_names)
        for fact in fact_tables:
            missing = [d for d in fact.dimension_names if d not in known]
            if missing:
                raise SchemaError(
                    f"fact table {fact.name!r} references unknown dimensions: "
                    f"{', '.join(missing)}"
                )
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "dimensions", dimensions)
        object.__setattr__(self, "fact_tables", fact_tables)

    # -- navigation helpers -------------------------------------------------

    @property
    def dimension_names(self) -> Tuple[str, ...]:
        """Names of all dimensions in declaration order."""
        return tuple(d.name for d in self.dimensions)

    def dimension(self, name: str) -> Dimension:
        """Return the dimension called ``name``."""
        for dimension in self.dimensions:
            if dimension.name == name:
                return dimension
        raise SchemaError(
            f"schema {self.name!r} has no dimension {name!r}; "
            f"known dimensions: {', '.join(self.dimension_names)}"
        )

    def has_dimension(self, name: str) -> bool:
        """True when the schema contains a dimension called ``name``."""
        return any(d.name == name for d in self.dimensions)

    def fact_table(self, name: Optional[str] = None) -> FactTable:
        """Return the named fact table, or the first one when ``name`` is omitted."""
        if name is None:
            return self.fact_tables[0]
        for fact in self.fact_tables:
            if fact.name == name:
                return fact
        raise SchemaError(
            f"schema {self.name!r} has no fact table {name!r}; known fact "
            f"tables: {', '.join(f.name for f in self.fact_tables)}"
        )

    def dimensions_of(self, fact: FactTable) -> Tuple[Dimension, ...]:
        """The dimension objects referenced by ``fact``, in reference order."""
        return tuple(self.dimension(name) for name in fact.dimension_names)

    def level_cardinality(self, dimension_name: str, level_name: str) -> int:
        """Cardinality of ``dimension.level``; convenience for cost formulas."""
        return self.dimension(dimension_name).level(level_name).cardinality

    def with_skew(self, skew: "dict[str, float]") -> "StarSchema":
        """A copy of the schema with the given per-dimension Zipf thetas.

        ``skew`` maps dimension names to the new bottom-level Zipf theta
        (``0.0`` removes the skew); unnamed dimensions are kept as they are.
        This is the schema-side "what-if" edit of the paper's interactive
        tuning session (:meth:`repro.api.AdvisorSession.with_delta`).
        """
        unknown = [name for name in skew if not self.has_dimension(name)]
        if unknown:
            raise SchemaError(
                f"schema {self.name!r} has no dimension(s) "
                f"{', '.join(map(repr, unknown))}; known dimensions: "
                f"{', '.join(self.dimension_names)}"
            )
        dimensions = tuple(
            Dimension(
                name=dimension.name,
                levels=dimension.levels,
                skew=SkewSpec(theta=float(skew[dimension.name])),
                row_size_bytes=dimension.row_size_bytes,
            )
            if dimension.name in skew
            else dimension
            for dimension in self.dimensions
        )
        return StarSchema(
            name=self.name, dimensions=dimensions, fact_tables=self.fact_tables
        )

    def total_size_bytes(self) -> int:
        """Raw size of all fact tables plus all dimension tables."""
        fact_bytes = sum(fact.size_bytes() for fact in self.fact_tables)
        dim_bytes = sum(dim.size_bytes() for dim in self.dimensions)
        return fact_bytes + dim_bytes

    def describe(self) -> str:
        """One-paragraph human-readable description used by reports and the CLI."""
        lines = [f"Star schema {self.name!r}"]
        for dimension in self.dimensions:
            hierarchy = " > ".join(
                f"{level.name}({level.cardinality})" for level in dimension.levels
            )
            skew = f", zipf theta={dimension.skew.theta}" if dimension.skew.is_skewed else ""
            lines.append(f"  dimension {dimension.name}: {hierarchy}{skew}")
        for fact in self.fact_tables:
            lines.append(
                f"  fact table {fact.name}: {fact.row_count:,} rows x "
                f"{fact.row_size_bytes} B, dimensions "
                f"{', '.join(fact.dimension_names)}"
            )
        return "\n".join(lines)
