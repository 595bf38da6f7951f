"""Advisor configuration.

The configuration bundles every tunable of the prediction layer: the candidate
space bounds, the exclusion thresholds, the ranking heuristic's leading-X%
fraction, the bitmap heuristic threshold and the allocation skew threshold.
Defaults follow the behaviour described in the paper; every knob exists so the
"interactive fine tuning" of §3.3 can be expressed programmatically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Optional

from repro.allocation import NOTABLE_SKEW_CV
from repro.bitmap.scheme import DEFAULT_CARDINALITY_THRESHOLD
from repro.errors import AdvisorError

__all__ = ["AdvisorConfig"]


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_optional_int(value: Any) -> bool:
    return value is None or _is_int(value)


def _is_number(value: Any) -> bool:
    """A finite ``int`` or ``float`` that is not a ``bool``."""
    return _is_int(value) or isinstance(value, float) and math.isfinite(value)


#: ``(field, check, expected)`` for every field.  An int field takes only an
#: ``int`` that is not a ``bool``, as :func:`repro.io.config.numeric_field`
#: requires (``int()`` would truncate ``2.5`` and read ``true`` as 1); a
#: number field takes no ``bool`` or string either, and ``include_baseline``
#: only a ``bool`` (any non-empty string is truthy).
_FIELD_TYPES = (
    ("top_fraction", _is_number, "a finite number"),
    ("top_candidates", _is_int, "an integer"),
    ("max_fragmentation_dimensions", _is_optional_int, "an integer or None"),
    ("min_fragments", _is_optional_int, "an integer or None"),
    ("max_fragments", _is_int, "an integer"),
    ("min_fragment_pages", _is_optional_int, "an integer or None"),
    ("bitmap_cardinality_threshold", _is_int, "an integer"),
    ("allocation_skew_cv", _is_number, "a finite number"),
    ("include_baseline", lambda value: isinstance(value, bool), "a bool"),
)


@dataclass(frozen=True)
class AdvisorConfig:
    """Tunables of the WARLOCK advisor pipeline.

    Parameters
    ----------
    top_fraction:
        The "leading X%" of candidates (by overall I/O cost) that are re-ranked
        by response time in the second phase of the heuristic.
    top_candidates:
        How many ranked candidates the recommendation retains for analysis.
    max_fragmentation_dimensions:
        Upper bound on the dimensionality of generated fragmentations
        (``None`` = no bound, i.e. full MDHF space).
    min_fragments:
        Exclusion threshold: candidates inducing fewer fragments than this
        cannot exploit the available disks and are dropped (defaults to the
        number of disks — at least one fragment per disk).  Set to an integer
        to override, or leave ``None`` to derive from the system.
    max_fragments:
        Exclusion threshold: candidates inducing more fragments than this are
        dropped (fragment management overhead, catalogue size).
    min_fragment_pages:
        Exclusion threshold: candidates whose *average* fragment size falls
        below this many pages are dropped.  ``None`` derives the bound from the
        prefetching granule, per the paper ("fragment sizes drop below the
        prefetching granule").
    bitmap_cardinality_threshold:
        Attribute cardinality above which encoded (rather than standard)
        bitmaps are used.
    allocation_skew_cv:
        Fragment-size CV above which the greedy size-based allocation is used
        instead of round-robin.
    include_baseline:
        Whether the unfragmented baseline participates in the evaluation (it is
        reported but never wins under a parallel workload).
    """

    top_fraction: float = 0.25
    top_candidates: int = 10
    max_fragmentation_dimensions: Optional[int] = None
    min_fragments: Optional[int] = None
    max_fragments: int = 100_000
    min_fragment_pages: Optional[int] = None
    bitmap_cardinality_threshold: int = DEFAULT_CARDINALITY_THRESHOLD
    allocation_skew_cv: float = NOTABLE_SKEW_CV
    include_baseline: bool = False

    def __post_init__(self) -> None:
        # Types first, so the API, a registration's ``advisor`` block and a
        # study's ``with_delta`` all get the same check.
        for name, check, expected in _FIELD_TYPES:
            value = getattr(self, name)
            if not check(value):
                raise AdvisorError(f"{name} must be {expected}, got {value!r}")
        if not 0 < self.top_fraction <= 1:
            raise AdvisorError(
                f"top_fraction must be in (0, 1], got {self.top_fraction}"
            )
        if self.top_candidates <= 0:
            raise AdvisorError(
                f"top_candidates must be positive, got {self.top_candidates}"
            )
        if (
            self.max_fragmentation_dimensions is not None
            and self.max_fragmentation_dimensions < 1
        ):
            raise AdvisorError(
                "max_fragmentation_dimensions must be at least 1 when set, got "
                f"{self.max_fragmentation_dimensions}"
            )
        if self.min_fragments is not None and self.min_fragments < 1:
            raise AdvisorError(
                f"min_fragments must be at least 1 when set, got {self.min_fragments}"
            )
        if self.max_fragments < 1:
            raise AdvisorError(
                f"max_fragments must be at least 1, got {self.max_fragments}"
            )
        if self.min_fragment_pages is not None and self.min_fragment_pages < 1:
            raise AdvisorError(
                "min_fragment_pages must be at least 1 when set, got "
                f"{self.min_fragment_pages}"
            )
        if self.bitmap_cardinality_threshold < 1:
            raise AdvisorError(
                "bitmap_cardinality_threshold must be at least 1, got "
                f"{self.bitmap_cardinality_threshold}"
            )
        if self.allocation_skew_cv < 0:
            raise AdvisorError(
                f"allocation_skew_cv must be non-negative, got {self.allocation_skew_cv}"
            )
        if self.min_fragments is not None and self.min_fragments > self.max_fragments:
            raise AdvisorError(
                f"min_fragments ({self.min_fragments}) exceeds max_fragments "
                f"({self.max_fragments})"
            )

    def resolved_min_fragments(self, num_disks: int) -> int:
        """The effective minimum fragment count (defaults to the disk count)."""
        if self.min_fragments is not None:
            return self.min_fragments
        return max(1, num_disks)

    def resolved_min_fragment_pages(self, prefetch_pages_hint: int) -> int:
        """The effective minimum average fragment size in pages.

        Defaults to the prefetching granule hint so that fragments do not drop
        below the prefetch unit, as the paper's threshold example states.
        """
        if self.min_fragment_pages is not None:
            return self.min_fragment_pages
        return max(1, prefetch_pages_hint)
