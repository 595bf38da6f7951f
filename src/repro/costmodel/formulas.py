"""Classical estimation formulas used by the analytical I/O model.

These are the textbook building blocks every physical-design cost model relies
on: Yao's formula (expected pages touched when picking ``k`` rows at random out
of ``n`` rows stored on ``m`` pages), Cardenas' approximation of the same
quantity, expected numbers of distinct ancestors under hierarchical
containment, and row-to-page conversions.

:func:`cardenas_pages` and :func:`expected_distinct_ancestors` additionally
accept numpy arrays and then evaluate element-wise over the whole batch.  The
array path performs *exactly* the same IEEE-754 double operations in the same
order as the scalar path, so vectorized results are bit-identical to a scalar
loop — the property the batched cost sweep relies on (and the
parity tests assert).
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import CostModelError

__all__ = [
    "pages_for_rows",
    "yao_pages",
    "cardenas_pages",
    "expected_distinct_ancestors",
]


def pages_for_rows(rows: float, rows_per_page: int) -> int:
    """Pages needed to store ``rows`` rows at ``rows_per_page`` per page."""
    if rows < 0:
        raise CostModelError(f"rows must be non-negative, got {rows}")
    if rows_per_page <= 0:
        raise CostModelError(f"rows_per_page must be positive, got {rows_per_page}")
    if rows == 0:
        return 0
    return int(math.ceil(rows / rows_per_page))


def _is_array(*values) -> bool:
    """True when any of the values is a numpy array (selects the batch path)."""
    return any(isinstance(value, np.ndarray) for value in values)


def _elementwise_pow(base: np.ndarray, exponent: np.ndarray) -> np.ndarray:
    """``base ** exponent`` per element, through CPython floats.

    NumPy's vectorized ``**`` (SIMD pow) can differ from CPython's ``**`` in
    the last ulp, which would break the bit-parity contract between the
    batched and the scalar cost paths.  The formulas apply pow only O(classes)
    times per candidate, so routing this one transcendental through libm via
    Python floats costs microseconds and buys exact equality.
    """
    return np.array(
        [b ** e for b, e in zip(base.tolist(), exponent.tolist())],
        dtype=np.float64,
    ).reshape(base.shape)


def cardenas_pages(total_rows, total_pages, selected_rows):
    """Cardenas' approximation of pages touched by ``selected_rows`` random rows.

    ``m * (1 - (1 - 1/m)^k)`` — a good approximation of Yao's formula whenever
    the number of rows per page is not tiny, and numerically robust for the
    fractional row/page counts an analytical model manipulates.

    Arguments may be scalars or numpy arrays (broadcast element-wise); array
    results are bit-identical to calling the scalar form per element.
    """
    if _is_array(total_rows, total_pages, selected_rows):
        total_rows, total_pages, selected_rows = np.broadcast_arrays(
            np.asarray(total_rows, dtype=np.float64),
            np.asarray(total_pages, dtype=np.float64),
            np.asarray(selected_rows, dtype=np.float64),
        )
        if (total_rows < 0).any() or (total_pages < 0).any() or (selected_rows < 0).any():
            raise CostModelError("cardenas_pages arguments must be non-negative")
        # Compute only the non-zero entries: no division by zero, and the pow
        # base stays in the scalar path's domain.
        zero = (total_pages == 0) | (total_rows == 0) | (selected_rows == 0)
        result = np.zeros(total_pages.shape, dtype=np.float64)
        active = ~zero
        pages = total_pages[active]
        selected = np.minimum(selected_rows, total_rows)[active]
        miss = _elementwise_pow(1.0 - 1.0 / pages, selected)
        result[active] = pages * (1.0 - miss)
        return result
    if total_rows < 0 or total_pages < 0 or selected_rows < 0:
        raise CostModelError("cardenas_pages arguments must be non-negative")
    if total_pages == 0 or total_rows == 0 or selected_rows == 0:
        return 0.0
    selected = min(selected_rows, total_rows)
    return total_pages * (1.0 - (1.0 - 1.0 / total_pages) ** selected)


def yao_pages(total_rows: int, total_pages: int, selected_rows: int) -> float:
    """Yao's formula: expected pages touched when selecting rows without replacement.

    Falls back to :func:`cardenas_pages` when the exact product would be
    numerically unstable (very large inputs), which keeps the function usable
    for warehouse-scale row counts.
    """
    if total_rows < 0 or total_pages < 0 or selected_rows < 0:
        raise CostModelError("yao_pages arguments must be non-negative")
    if total_pages == 0 or total_rows == 0 or selected_rows == 0:
        return 0.0
    if selected_rows >= total_rows:
        return float(total_pages)
    rows_per_page = total_rows / total_pages
    if total_rows > 10_000_000 or selected_rows > 100_000:
        return cardenas_pages(total_rows, total_pages, selected_rows)
    # Probability that a given page contains none of the selected rows.
    # Computed in log space for robustness.
    log_miss = 0.0
    n = total_rows
    p = rows_per_page
    for i in range(int(selected_rows)):
        numerator = n - p - i
        denominator = n - i
        if numerator <= 0:
            return float(total_pages)
        log_miss += math.log(numerator / denominator)
    return total_pages * (1.0 - math.exp(log_miss))


def expected_distinct_ancestors(selected_values, fine_cardinality, coarse_cardinality):
    """Expected distinct coarse-level ancestors of ``selected_values`` fine-level values.

    Under hierarchical containment each fine value has exactly one ancestor.
    Selecting ``k`` fine values uniformly at random touches
    ``M * (1 - (1 - 1/M)^k)`` coarse values in expectation (``M`` = coarse
    cardinality), the standard balls-into-bins estimate.

    Arguments may be scalars or numpy arrays (broadcast element-wise); array
    results are bit-identical to calling the scalar form per element.
    """
    if _is_array(selected_values, fine_cardinality, coarse_cardinality):
        selected_values, fine, coarse = np.broadcast_arrays(
            np.asarray(selected_values, dtype=np.float64),
            np.asarray(fine_cardinality, dtype=np.float64),
            np.asarray(coarse_cardinality, dtype=np.float64),
        )
        if (fine <= 0).any() or (coarse <= 0).any():
            raise CostModelError("cardinalities must be positive")
        if (coarse > fine).any():
            raise CostModelError(
                "coarse_cardinality cannot exceed fine_cardinality under containment"
            )
        if (selected_values < 0).any():
            raise CostModelError("selected_values must be non-negative")
        selected = np.minimum(selected_values, fine)
        ancestors = coarse * (1.0 - _elementwise_pow(1.0 - 1.0 / coarse, selected))
        return np.where(selected_values == 0, 0.0, ancestors)
    if fine_cardinality <= 0 or coarse_cardinality <= 0:
        raise CostModelError("cardinalities must be positive")
    if coarse_cardinality > fine_cardinality:
        raise CostModelError(
            "coarse_cardinality cannot exceed fine_cardinality under containment"
        )
    if selected_values < 0:
        raise CostModelError("selected_values must be non-negative")
    if selected_values == 0:
        return 0.0
    selected = min(selected_values, float(fine_cardinality))
    return coarse_cardinality * (
        1.0 - (1.0 - 1.0 / coarse_cardinality) ** selected
    )
