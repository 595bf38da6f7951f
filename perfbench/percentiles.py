"""Tail percentiles with the benchmark's sample-count rule.

A tail percentile is only reported when at least ``MIN_BEYOND`` samples lie
beyond it; with fewer, the value would be decided by a handful of samples
and move from run to run for no reason in the program.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

#: Samples that must lie strictly beyond a reported tail percentile.
MIN_BEYOND = 10


def samples_beyond(count: int, fraction: float) -> int:
    """Samples above the nearest-rank ``fraction`` percentile of ``count``."""
    return count - math.ceil(fraction * count)


def tail_percentile(
    values: Sequence[float], fraction: float, min_beyond: int = MIN_BEYOND
) -> Optional[float]:
    """Nearest-rank percentile, or ``None`` when too few samples lie beyond it."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    count = len(values)
    if count == 0 or samples_beyond(count, fraction) < min_beyond:
        return None
    ordered = sorted(values)
    return float(ordered[math.ceil(fraction * count) - 1])
