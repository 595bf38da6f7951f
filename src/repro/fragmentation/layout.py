"""Fragmentation layouts: per-fragment row counts and page counts.

A :class:`FragmentationLayout` materializes a fragmentation specification for a
concrete fact table: it derives how many rows and database pages every fragment
holds, taking the Zipf-like data skew of the dimensions into account.  Layouts
are the common substrate of the cost model (fragments/pages hit by a query),
the allocation schemes (fragment sizes drive the greedy placement) and the
analysis layer (database statistics, fragment size distributions).

Fragment row counts and their coefficient of variation feed the disk
allocation and the cost model's imbalance factor, so this module is held to
the parity rules of the cost code.
"""

# lint: parity-critical

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import FragmentationError
from repro.schema import Dimension, FactTable, StarSchema
from repro.skew import coefficient_of_variation
from repro.fragmentation.spec import FragmentationSpec

__all__ = [
    "dimension_row_shares",
    "build_layout",
    "check_fragment_limit",
    "FragmentationLayout",
]

#: Safety bound on materialized fragment arrays.  Candidates above this are
#: normally excluded long before a layout is built (see repro.core.thresholds);
#: the guard protects interactive misuse.
DEFAULT_MAX_FRAGMENTS = 2_000_000


def dimension_row_shares(dimension: Dimension, level: str) -> np.ndarray:
    """Row share of each value of ``dimension.level``.

    The schema model attaches Zipf-like skew to the *bottom* level of a
    dimension.  Shares at a coarser level are obtained by aggregating the
    ranked bottom-level probabilities over contiguous, (near-)equally sized
    blocks of descendants — each coarse value has ``card(bottom)/card(level)``
    children on average, and hierarchical containment maps every bottom value
    to exactly one ancestor.

    A dimension is an immutable value, so the shares of each of its levels
    are computed once and kept in its memo; every layout fragmenting that
    level reads the same vector.

    Returns
    -------
    numpy.ndarray
        Read-only vector of length ``card(level)`` summing to 1.0.
    """
    key = ("row_shares", level)
    shares = dimension._memo.get(key)
    if shares is None:
        shares = _row_shares(dimension, level)
        shares.setflags(write=False)
        dimension._memo[key] = shares
    return shares


def _row_shares(dimension: Dimension, level: str) -> np.ndarray:
    level_obj = dimension.level(level)
    bottom = dimension.bottom_level
    if not dimension.skew.is_skewed:
        return np.full(level_obj.cardinality, 1.0 / level_obj.cardinality)

    bottom_probs = dimension.skew.distribution(bottom.cardinality).probabilities()
    if level_obj.cardinality == bottom.cardinality:
        return bottom_probs

    # Split the ranked bottom values into card(level) contiguous blocks whose
    # sizes differ by at most one, then sum each block.
    boundaries = np.linspace(0, bottom.cardinality, level_obj.cardinality + 1)
    boundaries = np.round(boundaries).astype(int)
    cumulative = np.concatenate(([0.0], np.cumsum(bottom_probs)))
    shares = cumulative[boundaries[1:]] - cumulative[boundaries[:-1]]
    # Guard against tiny negative values from floating point subtraction.
    shares = np.clip(shares, 0.0, None)
    total = shares.sum()
    if total <= 0:
        raise FragmentationError(
            f"degenerate share vector for {dimension.name}.{level}"
        )
    return shares / total


def build_layout(
    schema: StarSchema,
    spec: FragmentationSpec,
    fact_table: Optional[str] = None,
    page_size_bytes: int = 8192,
    max_fragments: int = DEFAULT_MAX_FRAGMENTS,
) -> "FragmentationLayout":
    """Materialize ``spec`` for a fact table of ``schema``.

    Parameters
    ----------
    schema, spec:
        Schema and fragmentation specification.
    fact_table:
        Fact table name (primary fact table when omitted).
    page_size_bytes:
        Database page size used to convert rows to pages.
    max_fragments:
        Guard against materializing absurdly fine fragmentations.

    Raises
    ------
    FragmentationError
        When the spec is invalid for the schema or induces more than
        ``max_fragments`` fragments.
    """
    fact = schema.fact_table(fact_table)
    spec.validate(schema, fact)
    check_fragment_limit(spec, spec.fragment_count(schema), max_fragments)
    return FragmentationLayout(
        schema=schema,
        fact=fact,
        spec=spec,
        page_size_bytes=page_size_bytes,
    )


def check_fragment_limit(
    spec: FragmentationSpec, fragment_count: int, max_fragments: int
) -> None:
    """The materialization guard of :func:`build_layout`.

    Raises :class:`~repro.errors.FragmentationError` when ``spec`` induces
    more than ``max_fragments`` fragments; callers that reuse a layout built
    earlier (under a possibly looser limit) apply it again.
    """
    if fragment_count > max_fragments:
        raise FragmentationError(
            f"fragmentation {spec.label} induces {fragment_count:,} fragments, "
            f"exceeding the materialization limit of {max_fragments:,}"
        )


@dataclass(frozen=True)
class FragmentationLayout:
    """A fragmentation spec bound to a fact table, with per-fragment sizes."""

    schema: StarSchema
    fact: FactTable
    spec: FragmentationSpec
    page_size_bytes: int = 8192

    def __post_init__(self) -> None:
        if self.page_size_bytes <= 0:
            raise FragmentationError(
                f"page_size_bytes must be positive, got {self.page_size_bytes}"
            )

    # -- axis geometry ---------------------------------------------------------

    @cached_property
    def axis_dimensions(self) -> Tuple[str, ...]:
        """Fragmentation dimensions in spec order."""
        return self.spec.dimensions

    @cached_property
    def axis_cardinalities(self) -> Tuple[int, ...]:
        """Number of fragment values along each fragmentation axis."""
        return self.spec.axis_cardinalities(self.schema)

    @cached_property
    def fragment_count(self) -> int:
        """Total number of fragments."""
        return self.spec.fragment_count(self.schema)

    @cached_property
    def axis_shares(self) -> Tuple[np.ndarray, ...]:
        """Row-share vector along each fragmentation axis (skew-aware)."""
        shares = []
        for attribute in self.spec.attributes:
            dimension = self.schema.dimension(attribute.dimension)
            shares.append(dimension_row_shares(dimension, attribute.level))
        return tuple(shares)

    # -- fragment sizes ----------------------------------------------------------

    @cached_property
    def fragment_rows(self) -> np.ndarray:
        """Expected row count of every fragment (flat, C-order over the axes)."""
        if not self.spec.is_fragmented:
            return np.array([float(self.fact.row_count)])
        shares = self.axis_shares[0]
        for axis in self.axis_shares[1:]:
            shares = np.multiply.outer(shares, axis)
        return shares.reshape(-1) * float(self.fact.row_count)

    @cached_property
    def rows_per_page(self) -> int:
        """Fact rows per database page (blocking factor)."""
        return self.fact.rows_per_page(self.page_size_bytes)

    @cached_property
    def fragment_fact_pages(self) -> np.ndarray:
        """Fact-table pages of every fragment (``ceil`` of rows over blocking factor)."""
        pages = np.ceil(self.fragment_rows / self.rows_per_page)
        return pages.astype(np.int64)

    @cached_property
    def total_fact_pages(self) -> int:
        """Total fact-table pages over all fragments."""
        return int(self.fragment_fact_pages.sum())

    @cached_property
    def average_fragment_pages(self) -> float:
        """Mean fragment size in pages."""
        return float(self.fragment_fact_pages.mean())

    @cached_property
    def max_fragment_pages(self) -> int:
        """Largest fragment size in pages."""
        return int(self.fragment_fact_pages.max())

    @cached_property
    def min_fragment_pages(self) -> int:
        """Smallest fragment size in pages."""
        return int(self.fragment_fact_pages.min())

    @cached_property
    def fragment_size_cv(self) -> float:
        """Coefficient of variation of fragment sizes (0 without skew).

        ``np.std`` over the flat :attr:`fragment_rows`: the value feeds the
        cost model's imbalance factor, so a different reduction would move
        costs and fingerprints.
        """
        return coefficient_of_variation(self.fragment_rows)

    # -- indexing ---------------------------------------------------------------

    def flat_index(self, coordinates: Sequence[int]) -> int:
        """Flat fragment index of a value-coordinate tuple (C-order)."""
        coords = tuple(coordinates)
        cards = self.axis_cardinalities
        if len(coords) != len(cards):
            raise FragmentationError(
                f"expected {len(cards)} coordinates, got {len(coords)}"
            )
        flat = 0
        for coordinate, cardinality in zip(coords, cards):
            if not 0 <= coordinate < cardinality:
                raise FragmentationError(
                    f"coordinate {coordinate} out of range [0, {cardinality})"
                )
            flat = flat * cardinality + coordinate
        return flat

    def coordinates(self, flat_index: int) -> Tuple[int, ...]:
        """Value-coordinate tuple of a flat fragment index."""
        if not 0 <= flat_index < self.fragment_count:
            raise FragmentationError(
                f"fragment index {flat_index} out of range "
                f"[0, {self.fragment_count})"
            )
        coords = []
        remainder = flat_index
        for cardinality in reversed(self.axis_cardinalities):
            coords.append(remainder % cardinality)
            remainder //= cardinality
        return tuple(reversed(coords))

    def axis_index(self, dimension: str) -> int:
        """Position of ``dimension`` among the fragmentation axes."""
        for index, name in enumerate(self.axis_dimensions):
            if name == dimension:
                return index
        raise FragmentationError(
            f"{dimension!r} is not a fragmentation dimension of {self.spec.label}"
        )

    # -- presentation -------------------------------------------------------------

    def describe(self) -> str:
        """Database-statistic style summary (fragments, pages, sizes)."""
        return (
            f"{self.spec.label}: {self.fragment_count:,} fragments, "
            f"{self.total_fact_pages:,} fact pages, avg fragment "
            f"{self.average_fragment_pages:,.1f} pages "
            f"(min {self.min_fragment_pages:,}, max {self.max_fragment_pages:,}), "
            f"size CV {self.fragment_size_cv:.3f}"
        )
