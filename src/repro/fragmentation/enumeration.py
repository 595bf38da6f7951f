"""Enumeration of the fragmentation candidate space.

WARLOCK's prediction layer generates every *point* fragmentation: for each
dimension it may either skip the dimension or pick exactly one of its hierarchy
levels as the fragmentation attribute.  The candidate space therefore has
``prod_d (levels_d + 1) - 1`` non-empty members (plus the unfragmented
baseline), which stays small even for rich schemas and is subsequently pruned
by the exclusion thresholds of :mod:`repro.core.thresholds`.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from repro.errors import FragmentationError
from repro.schema import FactTable, StarSchema
from repro.fragmentation.spec import FragmentationAttribute, FragmentationSpec

__all__ = ["enumerate_point_fragmentations", "count_point_fragmentations"]


def _axis_choices(
    schema: StarSchema, fact: FactTable
) -> List[List[Optional[FragmentationAttribute]]]:
    """Per-dimension choices: ``None`` (skip) or one attribute per level."""
    choices: List[List[Optional[FragmentationAttribute]]] = []
    for dimension_name in fact.dimension_names:
        dimension = schema.dimension(dimension_name)
        axis: List[Optional[FragmentationAttribute]] = [None]
        axis.extend(
            FragmentationAttribute(dimension=dimension.name, level=level.name)
            for level in dimension.levels
        )
        choices.append(axis)
    return choices


def count_point_fragmentations(
    schema: StarSchema,
    fact_table: Optional[str] = None,
    max_dimensions: Optional[int] = None,
    include_baseline: bool = False,
) -> int:
    """Size of the candidate space ``enumerate_point_fragmentations`` would yield."""
    return sum(
        1
        for _ in enumerate_point_fragmentations(
            schema,
            fact_table=fact_table,
            max_dimensions=max_dimensions,
            include_baseline=include_baseline,
        )
    )


def enumerate_point_fragmentations(
    schema: StarSchema,
    fact_table: Optional[str] = None,
    max_dimensions: Optional[int] = None,
    include_baseline: bool = False,
) -> Iterator[FragmentationSpec]:
    """Yield every point fragmentation of the fact table.

    Parameters
    ----------
    schema:
        The star schema.
    fact_table:
        Name of the fact table to fragment; the primary fact table when omitted.
    max_dimensions:
        Upper bound on the fragmentation dimensionality (``None`` = no bound).
    include_baseline:
        Whether to also yield the unfragmented baseline spec.

    Yields
    ------
    FragmentationSpec
        Candidates in a deterministic order (dimension declaration order,
        coarser levels before finer levels, lower dimensionality first is *not*
        guaranteed — ranking happens later).
    """
    if max_dimensions is not None and max_dimensions < 0:
        raise FragmentationError(
            f"max_dimensions must be non-negative, got {max_dimensions}"
        )
    fact = schema.fact_table(fact_table)
    choices = _axis_choices(schema, fact)

    if include_baseline:
        yield FragmentationSpec.none()

    # Expand one dimension at a time, outer prefixes first — the order of
    # ``product(*choices)`` — and drop every prefix that is already at the
    # dimensionality bound before it picks another attribute, instead of
    # generating all combinations and filtering them.
    prefixes: List[Tuple[FragmentationAttribute, ...]] = [()]
    for axis in choices:
        prefixes = [
            prefix if attribute is None else prefix + (attribute,)
            for prefix in prefixes
            for attribute in axis
            if attribute is None
            or max_dimensions is None
            or len(prefix) < max_dimensions
        ]
    for attributes in prefixes:
        if attributes:
            yield FragmentationSpec(attributes)
