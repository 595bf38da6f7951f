"""Skew and balance metrics.

These metrics are used in two places:

* to characterize a dimension's value distribution (how skewed is the data the
  DBA described?), which drives WARLOCK's decision to switch from the logical
  round-robin allocation to the greedy size-based allocation, and
* to characterize the quality of a disk allocation (how balanced are disk
  occupancy and disk accesses?), which the analysis layer reports.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import CostModelError

__all__ = [
    "coefficient_of_variation",
    "gini_coefficient",
    "top_fraction_share",
    "skew_classification",
]


def _as_array(values: Sequence[float]) -> np.ndarray:
    # An ndarray is taken as is (no copy when already contiguous float64);
    # any other sequence or iterable is materialized first.
    if isinstance(values, np.ndarray):
        array = np.ascontiguousarray(values, dtype=float)
    else:
        array = np.asarray(list(values), dtype=float)
    if array.size == 0:
        raise CostModelError("metric requires at least one value")
    # One reduction, no temporary mask: every layout's fragment-size CV runs
    # this check over all its fragments.  NaN passes, as it did with a mask.
    if array.min() < 0:
        raise CostModelError("metric values must be non-negative")
    return array


def coefficient_of_variation(values: Sequence[float]) -> float:
    """Standard deviation divided by the mean (0 for perfectly balanced input).

    The population standard deviation is used.  A zero mean (all values zero)
    yields 0.0 by convention: an all-empty allocation is trivially balanced.
    """
    array = _as_array(values)
    mean = array.mean()
    if mean == 0:
        return 0.0
    return float(array.std() / mean)


def gini_coefficient(values: Sequence[float]) -> float:
    """Gini coefficient of the value distribution (0 = equal, →1 = concentrated)."""
    array = np.sort(_as_array(values))
    total = array.sum()
    if total == 0:
        return 0.0
    n = array.size
    index = np.arange(1, n + 1)
    return float((2.0 * np.sum(index * array)) / (n * total) - (n + 1.0) / n)


def top_fraction_share(values: Sequence[float], fraction: float = 0.2) -> float:
    """Share of the total carried by the top ``fraction`` of values.

    ``top_fraction_share(x, 0.2)`` answers the classic "how much of the data do
    the top 20% of values hold" question (1.0 means full concentration in that
    top slice, ``fraction`` means perfectly uniform).
    """
    if not 0 < fraction <= 1:
        raise CostModelError(f"fraction must be in (0, 1], got {fraction}")
    array = np.sort(_as_array(values))[::-1]
    total = array.sum()
    if total == 0:
        return 0.0
    k = max(1, int(round(fraction * array.size)))
    return float(array[:k].sum() / total)


def skew_classification(cv: float, notable_threshold: float = 0.10) -> str:
    """Classify a coefficient of variation as ``"none"``, ``"notable"`` or ``"severe"``.

    WARLOCK switches to the greedy size-based allocation under *notable* skew;
    this helper encodes the threshold used for that decision.  Values above ten
    times the notable threshold are labelled severe.
    """
    if cv < 0:
        raise CostModelError(f"coefficient of variation must be non-negative, got {cv}")
    if notable_threshold <= 0:
        raise CostModelError(
            f"notable_threshold must be positive, got {notable_threshold}"
        )
    if cv < notable_threshold:
        return "none"
    if cv < 10 * notable_threshold:
        return "notable"
    return "severe"
