"""Fragmentation specifications.

A :class:`FragmentationSpec` names the dimension attributes (at most one level
per dimension) whose value combinations define the horizontal fragments of a
fact table.  Following the paper, the advisor only considers *point*
fragmentations: each fragment corresponds to exactly one value combination
(attribute range size = 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Tuple

from repro.errors import FragmentationError
from repro.schema import FactTable, StarSchema

__all__ = ["FragmentationAttribute", "FragmentationSpec"]


@dataclass(frozen=True)
class FragmentationAttribute:
    """One fragmentation attribute: a dimension plus one of its hierarchy levels."""

    dimension: str
    level: str

    def __post_init__(self) -> None:
        if not self.dimension or not str(self.dimension).strip():
            raise FragmentationError("fragmentation attribute needs a dimension name")
        if not self.level or not str(self.level).strip():
            raise FragmentationError(
                f"fragmentation attribute on {self.dimension!r} needs a level name"
            )

    def cardinality(self, schema: StarSchema) -> int:
        """Number of distinct values of the attribute (= fragments along this axis)."""
        return schema.level_cardinality(self.dimension, self.level)

    def describe(self) -> str:
        """Short ``dimension.level`` form."""
        return f"{self.dimension}.{self.level}"


@dataclass(frozen=True)
class FragmentationSpec:
    """A multi-dimensional hierarchical fragmentation specification.

    ``attributes`` holds at most one :class:`FragmentationAttribute` per
    dimension; the empty tuple denotes "no fragmentation" (the whole fact table
    is a single fragment), which serves as the baseline candidate.
    """

    attributes: Tuple[FragmentationAttribute, ...]

    def __init__(self, attributes: Sequence[FragmentationAttribute] = ()) -> None:
        attributes = tuple(attributes)
        dims = [a.dimension for a in attributes]
        if len(set(dims)) != len(dims):
            raise FragmentationError(
                f"a fragmentation may use at most one attribute per dimension, "
                f"got {dims}"
            )
        object.__setattr__(self, "attributes", attributes)

    # -- constructors ----------------------------------------------------------

    @classmethod
    def none(cls) -> "FragmentationSpec":
        """The "no fragmentation" baseline (a single fragment)."""
        return cls(())

    @classmethod
    def of(cls, *attribute_pairs: Tuple[str, str]) -> "FragmentationSpec":
        """Build a spec from ``(dimension, level)`` pairs.

        Example: ``FragmentationSpec.of(("time", "month"), ("product", "group"))``.
        """
        return cls(
            tuple(
                FragmentationAttribute(dimension=dim, level=lvl)
                for dim, lvl in attribute_pairs
            )
        )

    # -- accessors -------------------------------------------------------------

    @property
    def dimensionality(self) -> int:
        """Number of fragmentation dimensions (0 for the unfragmented baseline)."""
        return len(self.attributes)

    @property
    def is_fragmented(self) -> bool:
        """True unless this is the unfragmented baseline."""
        return bool(self.attributes)

    @property
    def is_one_dimensional(self) -> bool:
        """True for the classic one-dimensional special case."""
        return len(self.attributes) == 1

    @property
    def dimensions(self) -> Tuple[str, ...]:
        """Names of the fragmentation dimensions, in spec order."""
        return tuple(a.dimension for a in self.attributes)

    def uses_dimension(self, dimension: str) -> bool:
        """True when ``dimension`` is a fragmentation dimension."""
        return any(a.dimension == dimension for a in self.attributes)

    def attribute_for(self, dimension: str) -> Optional[FragmentationAttribute]:
        """The fragmentation attribute on ``dimension``, or ``None``."""
        for attribute in self.attributes:
            if attribute.dimension == dimension:
                return attribute
        return None

    def fragment_count(self, schema: StarSchema) -> int:
        """Number of fragments the spec induces (product of attribute cardinalities)."""
        count = 1
        for attribute in self.attributes:
            count *= attribute.cardinality(schema)
        return count

    def axis_cardinalities(self, schema: StarSchema) -> Tuple[int, ...]:
        """Cardinality of each fragmentation attribute, in spec order."""
        return tuple(attribute.cardinality(schema) for attribute in self.attributes)

    # -- validation --------------------------------------------------------------

    def validate(self, schema: StarSchema, fact_table: Optional[FactTable] = None) -> None:
        """Check the spec against ``schema`` (and optionally a fact table).

        Raises
        ------
        FragmentationError
            When an attribute references an unknown dimension or level, or a
            dimension the fact table does not reference.
        """
        fact = fact_table if fact_table is not None else schema.fact_table()
        for attribute in self.attributes:
            if not schema.has_dimension(attribute.dimension):
                raise FragmentationError(
                    f"fragmentation references unknown dimension "
                    f"{attribute.dimension!r}"
                )
            dimension = schema.dimension(attribute.dimension)
            if not dimension.has_level(attribute.level):
                raise FragmentationError(
                    f"fragmentation references unknown level "
                    f"{attribute.dimension}.{attribute.level}"
                )
            if attribute.dimension not in fact.dimension_names:
                raise FragmentationError(
                    f"fragmentation dimension {attribute.dimension!r} is not "
                    f"referenced by fact table {fact.name!r}"
                )

    # -- presentation -------------------------------------------------------------

    @cached_property
    def label(self) -> str:
        """Stable human-readable identifier, e.g. ``time.month x product.group``.

        Memoized: the engine stamps the label onto every (candidate × query
        class) work unit and cache key, so one spec's label is read thousands
        of times per sweep.
        """
        if not self.attributes:
            return "(unfragmented)"
        return " x ".join(a.describe() for a in self.attributes)

    def describe(self, schema: Optional[StarSchema] = None) -> str:
        """Label optionally enriched with the induced fragment count."""
        if schema is None:
            return self.label
        return f"{self.label} [{self.fragment_count(schema):,} fragments]"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.label
