"""Zipf-like value distributions used to model data skew.

The original tool asks the DBA to describe skew with a Zipf-like distribution
attached to the bottom level of a dimension.  The distribution assigns a
probability to each of the ``n`` distinct values of that level; fact-table rows
referencing the dimension are then spread over those values according to the
probabilities.  ``theta`` (often written *z*) controls the skew:

* ``theta = 0``   -- uniform distribution, no skew,
* ``theta = 0.5`` -- moderate skew,
* ``theta = 1.0`` -- classic Zipf ("80/20"-like) skew,
* larger values  -- extreme skew.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import SchemaError

__all__ = [
    "zipf_probabilities",
    "uniform_probabilities",
    "ZipfDistribution",
    "SkewSpec",
]


def uniform_probabilities(n: int) -> np.ndarray:
    """Return the uniform probability vector over ``n`` values.

    Parameters
    ----------
    n:
        Number of distinct values; must be positive.
    """
    if n <= 0:
        raise SchemaError(f"number of values must be positive, got {n}")
    return np.full(n, 1.0 / n)


def zipf_probabilities(n: int, theta: float) -> np.ndarray:
    """Return the Zipf(``theta``) probability vector over ``n`` ranked values.

    The i-th (1-based) most frequent value receives probability proportional to
    ``1 / i**theta``.  ``theta = 0`` degenerates to the uniform distribution.

    Parameters
    ----------
    n:
        Number of distinct values; must be positive.
    theta:
        Skew parameter; must be finite and non-negative.
    """
    if n <= 0:
        raise SchemaError(f"number of values must be positive, got {n}")
    if not (math.isfinite(theta) and theta >= 0):
        raise SchemaError(f"zipf theta must be finite and non-negative, got {theta}")
    if theta == 0.0:
        return uniform_probabilities(n)
    ranks = np.arange(1, n + 1, dtype=float)
    weights = ranks ** (-theta)
    return weights / weights.sum()


@dataclass(frozen=True)
class ZipfDistribution:
    """A normalized Zipf-like distribution over ``n`` ranked values."""

    n: int
    theta: float = 0.0

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise SchemaError(f"distribution size must be positive, got {self.n}")
        if not (math.isfinite(self.theta) and self.theta >= 0):
            raise SchemaError(
                f"zipf theta must be finite and non-negative, got {self.theta}"
            )

    def probabilities(self) -> np.ndarray:
        """Probability of each of the ``n`` values, most frequent first."""
        return zipf_probabilities(self.n, self.theta)

    def counts(self, total: int) -> np.ndarray:
        """Distribute ``total`` rows over the values, preserving the total exactly.

        The largest-remainder method is used so that ``counts(total).sum() ==
        total`` and no value receives a negative count.
        """
        if total < 0:
            raise SchemaError(f"total row count must be non-negative, got {total}")
        probs = self.probabilities()
        raw = probs * total
        floors = np.floor(raw).astype(np.int64)
        remainder = int(total - floors.sum())
        if remainder > 0:
            fractional = raw - floors
            # Give the leftover rows to the values with the largest fractional parts.
            order = np.argsort(-fractional, kind="stable")
            floors[order[:remainder]] += 1
        return floors

    @property
    def is_uniform(self) -> bool:
        """True when the distribution carries no skew."""
        return self.theta == 0.0

    def max_probability(self) -> float:
        """Probability of the most frequent value."""
        return float(self.probabilities()[0])


@dataclass(frozen=True)
class SkewSpec:
    """Skew descriptor attached to a dimension (bottom level).

    ``theta`` is the Zipf parameter applied to the values of the dimension's
    bottom level.  ``theta = 0`` (the default used when no skew is specified)
    means rows are spread uniformly.
    """

    theta: float = 0.0

    def __post_init__(self) -> None:
        # NaN would compare as neither skewed nor negative, and pass as uniform.
        if not (math.isfinite(self.theta) and self.theta >= 0):
            raise SchemaError(
                f"skew theta must be finite and non-negative, got {self.theta}"
            )

    @property
    def is_skewed(self) -> bool:
        """True when the descriptor specifies an actual (non-uniform) skew."""
        return self.theta > 0.0

    def distribution(self, cardinality: int) -> ZipfDistribution:
        """Materialize the distribution for a level of the given cardinality."""
        return ZipfDistribution(n=cardinality, theta=self.theta)

    @classmethod
    def none(cls) -> "SkewSpec":
        """Convenience constructor for "no skew"."""
        return cls(theta=0.0)
