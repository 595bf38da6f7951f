"""Unit tests for repro.costmodel.formulas: Yao/Cardenas, containment estimates.

The array branches of ``cardenas_pages`` and ``expected_distinct_ancestors``
carry a bit-parity contract with their scalar forms (the batched cost sweep
depends on it), so the property tests here compare vectorized results
against scalar loops with ``==`` — exact equality, not approximate.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.costmodel import (
    cardenas_pages,
    expected_distinct_ancestors,
    pages_for_rows,
    yao_pages,
)
from repro.errors import CostModelError

ARRAY_SETTINGS = settings(max_examples=60, deadline=None)

#: Value pools covering zeros, fractional expectations and warehouse scales.
#: Page counts are 0 or >= 1 (the model's ``ceil``-derived domain, where the
#: Cardenas base ``1 - 1/m`` stays in [0, 1)).
_ROWS = st.floats(min_value=0.0, max_value=5e8, allow_nan=False)
_PAGES = st.one_of(
    st.just(0.0), st.floats(min_value=1.0, max_value=5e6, allow_nan=False)
)
_SELECTED = st.floats(min_value=0.0, max_value=1e9, allow_nan=False)


class TestPagesForRows:
    def test_exact_fit(self):
        assert pages_for_rows(100, 10) == 10

    def test_rounding_up(self):
        assert pages_for_rows(101, 10) == 11

    def test_zero_rows(self):
        assert pages_for_rows(0, 10) == 0

    def test_fractional_rows(self):
        assert pages_for_rows(0.5, 10) == 1

    def test_invalid(self):
        with pytest.raises(CostModelError):
            pages_for_rows(-1, 10)
        with pytest.raises(CostModelError):
            pages_for_rows(10, 0)


class TestCardenas:
    def test_zero_selection(self):
        assert cardenas_pages(1000, 100, 0) == 0.0

    def test_full_selection_approaches_all_pages(self):
        assert cardenas_pages(1000, 100, 1000) == pytest.approx(100, rel=0.01)

    def test_single_row_single_page(self):
        assert cardenas_pages(1000, 100, 1) == pytest.approx(1.0, rel=0.01)

    def test_monotone_in_selection(self):
        previous = 0.0
        for k in (1, 10, 100, 500, 1000):
            value = cardenas_pages(1000, 100, k)
            assert value >= previous
            previous = value

    def test_bounded_by_total_pages(self):
        assert cardenas_pages(1000, 100, 10_000) <= 100

    def test_zero_pages(self):
        assert cardenas_pages(0, 0, 10) == 0.0

    def test_invalid(self):
        with pytest.raises(CostModelError):
            cardenas_pages(-1, 10, 1)


class TestYao:
    def test_zero_selection(self):
        assert yao_pages(1000, 100, 0) == 0.0

    def test_all_rows_selected(self):
        assert yao_pages(1000, 100, 1000) == 100.0

    def test_more_than_all_rows(self):
        assert yao_pages(1000, 100, 5000) == 100.0

    def test_single_row(self):
        assert yao_pages(1000, 100, 1) == pytest.approx(1.0, rel=0.01)

    def test_close_to_cardenas(self):
        exact = yao_pages(10_000, 1000, 500)
        approx = cardenas_pages(10_000, 1000, 500)
        assert exact == pytest.approx(approx, rel=0.05)

    def test_monotone_in_selection(self):
        values = [yao_pages(2000, 200, k) for k in (1, 5, 50, 500, 2000)]
        assert values == sorted(values)

    def test_large_inputs_fall_back_gracefully(self):
        # Must not raise or overflow for warehouse-scale numbers.
        value = yao_pages(50_000_000, 500_000, 1_000_000)
        assert 0 < value <= 500_000

    def test_bounded_by_pages(self):
        assert yao_pages(100, 10, 60) <= 10

    def test_invalid(self):
        with pytest.raises(CostModelError):
            yao_pages(-1, 10, 1)


class TestCardenasVectorized:
    """Array inputs: bit-identical to a scalar loop, same guards, monotone."""

    @ARRAY_SETTINGS
    @given(st.lists(st.tuples(_ROWS, _PAGES, _SELECTED), min_size=1, max_size=40))
    def test_matches_scalar_loop_bitwise(self, triples):
        rows = np.array([t[0] for t in triples])
        pages = np.array([t[1] for t in triples])
        selected = np.array([t[2] for t in triples])
        vectorized = cardenas_pages(rows, pages, selected)
        assert isinstance(vectorized, np.ndarray)
        scalar = [cardenas_pages(*t) for t in triples]
        assert vectorized.tolist() == scalar

    def test_broadcasts_scalar_arguments(self):
        selected = np.array([0.0, 1.0, 10.0, 1000.0])
        vectorized = cardenas_pages(1000.0, 100.0, selected)
        assert vectorized.tolist() == [
            cardenas_pages(1000.0, 100.0, k) for k in selected.tolist()
        ]

    @ARRAY_SETTINGS
    @given(st.tuples(_ROWS, _PAGES))
    def test_monotone_in_selection_on_arrays(self, pair):
        rows, pages = pair
        selected = np.array([0.0, 1.0, 7.5, 100.0, 10_000.0, 1e8])
        values = cardenas_pages(rows, pages, selected)
        assert values.tolist() == sorted(values.tolist())
        assert (values <= pages).all()
        assert (values >= 0.0).all()

    def test_zero_guards_match_scalar(self):
        rows = np.array([0.0, 100.0, 100.0, 0.0])
        pages = np.array([10.0, 0.0, 10.0, 0.0])
        selected = np.array([5.0, 5.0, 0.0, 0.0])
        assert cardenas_pages(rows, pages, selected).tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_negative_arrays_rejected(self):
        with pytest.raises(CostModelError):
            cardenas_pages(np.array([-1.0]), np.array([10.0]), np.array([1.0]))
        with pytest.raises(CostModelError):
            cardenas_pages(np.array([10.0]), np.array([-1.0]), np.array([1.0]))
        with pytest.raises(CostModelError):
            cardenas_pages(np.array([10.0]), np.array([10.0]), np.array([-1.0]))


class TestExpectedDistinctAncestorsVectorized:
    """Array inputs: bit-identical to a scalar loop, same guards, monotone."""

    @ARRAY_SETTINGS
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
                st.integers(min_value=1, max_value=1_000_000),
                st.integers(min_value=1, max_value=1_000_000),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_matches_scalar_loop_bitwise(self, triples):
        # Order each (fine, coarse) pair to respect containment.
        triples = [
            (selected, max(a, b), min(a, b)) for selected, a, b in triples
        ]
        selected = np.array([t[0] for t in triples])
        fine = np.array([t[1] for t in triples], dtype=np.float64)
        coarse = np.array([t[2] for t in triples], dtype=np.float64)
        vectorized = expected_distinct_ancestors(selected, fine, coarse)
        assert isinstance(vectorized, np.ndarray)
        scalar = [expected_distinct_ancestors(*t) for t in triples]
        assert vectorized.tolist() == scalar

    @ARRAY_SETTINGS
    @given(
        st.integers(min_value=1, max_value=100_000),
        st.integers(min_value=1, max_value=100),
    )
    def test_monotone_and_bounded_on_arrays(self, fine, ratio):
        coarse = max(1, fine // ratio)
        selected = np.array([0.0, 1.0, 2.0, 10.0, 500.0, float(fine), 2.0 * fine])
        values = expected_distinct_ancestors(selected, fine, coarse)
        assert values.tolist() == sorted(values.tolist())
        assert (values <= coarse).all()
        assert values[0] == 0.0
        if fine >= 1:
            assert values[-1] == pytest.approx(
                expected_distinct_ancestors(float(fine), fine, coarse)
            )

    def test_containment_violation_rejected_on_arrays(self):
        with pytest.raises(CostModelError):
            expected_distinct_ancestors(np.array([1.0]), np.array([10.0]), np.array([20.0]))
        with pytest.raises(CostModelError):
            expected_distinct_ancestors(np.array([-1.0]), np.array([10.0]), np.array([5.0]))
        with pytest.raises(CostModelError):
            expected_distinct_ancestors(np.array([1.0]), np.array([0.0]), np.array([0.0]))


class TestExpectedDistinctAncestors:
    def test_single_value_single_ancestor(self):
        assert expected_distinct_ancestors(1, 100, 10) == pytest.approx(1.0)

    def test_zero_values(self):
        assert expected_distinct_ancestors(0, 100, 10) == 0.0

    def test_all_values_all_ancestors(self):
        assert expected_distinct_ancestors(100, 100, 10) == pytest.approx(10, rel=0.01)

    def test_monotone(self):
        values = [expected_distinct_ancestors(k, 1000, 50) for k in (1, 5, 20, 100, 1000)]
        assert values == sorted(values)

    def test_bounded_by_coarse_cardinality(self):
        assert expected_distinct_ancestors(10_000, 1000, 20) <= 20

    def test_equal_cardinalities_identity_like(self):
        assert expected_distinct_ancestors(1, 50, 50) == pytest.approx(1.0)

    def test_invalid(self):
        with pytest.raises(CostModelError):
            expected_distinct_ancestors(1, 10, 20)
        with pytest.raises(CostModelError):
            expected_distinct_ancestors(-1, 20, 10)
        with pytest.raises(CostModelError):
            expected_distinct_ancestors(1, 0, 0)
