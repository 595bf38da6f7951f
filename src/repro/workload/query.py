"""Star query classes and dimension restrictions.

A *star query* joins the fact table with a subset of the dimensions, restricts
each accessed dimension at some hierarchy level (e.g. ``month = 'Jan-99'`` or
``division IN (...)``) and aggregates measure attributes.  WARLOCK abstracts
individual queries into *query classes*: all queries restricting the same
dimensions at the same levels belong to one class, and the class carries a
weight describing its share of the workload.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.errors import WorkloadError
from repro.schema import StarSchema

__all__ = ["DimensionRestriction", "QueryClass"]


@dataclass(frozen=True)
class DimensionRestriction:
    """A restriction of one dimension at one hierarchy level.

    Parameters
    ----------
    dimension:
        Name of the restricted dimension.
    level:
        Name of the hierarchy level the predicate refers to.
    value_count:
        Number of distinct values of that level selected by the predicate.
        ``1`` (the default) models the common point restriction
        (``month = ?``); larger values model IN-lists / small ranges.
    """

    dimension: str
    level: str
    value_count: int = 1

    def __post_init__(self) -> None:
        if not self.dimension or not str(self.dimension).strip():
            raise WorkloadError("restriction dimension name must be non-empty")
        if not self.level or not str(self.level).strip():
            raise WorkloadError(
                f"restriction on dimension {self.dimension!r} needs a level name"
            )
        if not isinstance(self.value_count, int) or isinstance(self.value_count, bool):
            raise WorkloadError(
                f"value_count must be an int, got {type(self.value_count).__name__}"
            )
        if self.value_count <= 0:
            raise WorkloadError(
                f"value_count must be positive, got {self.value_count} "
                f"(dimension {self.dimension!r})"
            )

    def selectivity(self, schema: StarSchema) -> float:
        """Fraction of the dimension's value space selected by this restriction."""
        cardinality = schema.level_cardinality(self.dimension, self.level)
        if self.value_count > cardinality:
            raise WorkloadError(
                f"restriction on {self.dimension}.{self.level} selects "
                f"{self.value_count} values but the level only has {cardinality}"
            )
        return self.value_count / cardinality

    def describe(self) -> str:
        """Short human-readable form, e.g. ``time.month (1 value)``."""
        plural = "value" if self.value_count == 1 else "values"
        return f"{self.dimension}.{self.level} ({self.value_count} {plural})"


@dataclass(frozen=True)
class QueryClass:
    """A weighted class of star queries.

    Parameters
    ----------
    name:
        Identifier used in reports.
    restrictions:
        One :class:`DimensionRestriction` per accessed dimension (at most one
        per dimension, matching the star-query shape).
    weight:
        Relative share of the workload (any finite positive number; the
        :class:`~repro.workload.mix.QueryMix` normalizes weights).
    fact_table:
        Optional name of the fact table the class targets; ``None`` means the
        schema's first (primary) fact table.
    """

    name: str
    restrictions: Tuple[DimensionRestriction, ...]
    weight: float = 1.0
    fact_table: Optional[str] = None

    def __init__(
        self,
        name: str,
        restrictions: Sequence[DimensionRestriction],
        weight: float = 1.0,
        fact_table: Optional[str] = None,
    ) -> None:
        if not name or not str(name).strip():
            raise WorkloadError("query class name must be non-empty")
        restrictions = tuple(restrictions)
        dims = [r.dimension for r in restrictions]
        if len(set(dims)) != len(dims):
            raise WorkloadError(
                f"query class {name!r}: at most one restriction per dimension "
                f"(got {dims})"
            )
        if not 0 < weight < math.inf:  # NaN fails both comparisons
            raise WorkloadError(
                f"query class {name!r}: weight must be a finite positive "
                f"number, got {weight!r}"
            )
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "restrictions", restrictions)
        object.__setattr__(self, "weight", float(weight))
        object.__setattr__(self, "fact_table", fact_table)

    # -- accessors ------------------------------------------------------------

    @property
    def accessed_dimensions(self) -> Tuple[str, ...]:
        """Names of the dimensions the class restricts."""
        return tuple(r.dimension for r in self.restrictions)

    def restricts(self, dimension: str) -> bool:
        """True when the class restricts ``dimension``."""
        return any(r.dimension == dimension for r in self.restrictions)

    def restriction_on(self, dimension: str) -> Optional[DimensionRestriction]:
        """The restriction on ``dimension``, or ``None`` when unrestricted."""
        for restriction in self.restrictions:
            if restriction.dimension == dimension:
                return restriction
        return None

    def restriction_map(self) -> Dict[str, DimensionRestriction]:
        """Mapping from dimension name to restriction."""
        return {r.dimension: r for r in self.restrictions}

    def selectivity(self, schema: StarSchema) -> float:
        """Fraction of fact-table rows qualifying for a query of this class.

        Under the standard star-schema independence assumption the overall
        selectivity is the product of the per-dimension selectivities.
        """
        result = 1.0
        for restriction in self.restrictions:
            result *= restriction.selectivity(schema)
        return result

    def validate(self, schema: StarSchema) -> None:
        """Check that every restriction references an existing dimension/level.

        Raises
        ------
        WorkloadError
            When a restriction references an unknown dimension or level, when
            the fact table does not reference a restricted dimension, or when a
            restriction selects more values than the level has.
        """
        fact = schema.fact_table(self.fact_table)
        for restriction in self.restrictions:
            if not schema.has_dimension(restriction.dimension):
                raise WorkloadError(
                    f"query class {self.name!r} restricts unknown dimension "
                    f"{restriction.dimension!r}"
                )
            dimension = schema.dimension(restriction.dimension)
            if not dimension.has_level(restriction.level):
                raise WorkloadError(
                    f"query class {self.name!r} restricts unknown level "
                    f"{restriction.dimension}.{restriction.level}"
                )
            if restriction.dimension not in fact.dimension_names:
                raise WorkloadError(
                    f"query class {self.name!r} restricts dimension "
                    f"{restriction.dimension!r} which fact table {fact.name!r} "
                    f"does not reference"
                )
            # Raises when value_count exceeds the level cardinality.
            restriction.selectivity(schema)

    def describe(self) -> str:
        """Human-readable single-line summary used in reports."""
        if not self.restrictions:
            return f"{self.name}: full fact table scan (no restrictions)"
        parts = ", ".join(r.describe() for r in self.restrictions)
        return f"{self.name}: {parts}"
