"""Unit tests for repro.fragmentation.layout: shares, fragment sizes, indexing."""

from __future__ import annotations

import numpy as np
import pytest

from repro import FragmentationSpec, build_layout
from repro.errors import FragmentationError
from repro.fragmentation import dimension_row_shares


class TestDimensionRowShares:
    def test_uniform_without_skew(self, toy_schema):
        shares = dimension_row_shares(toy_schema.dimension("time"), "quarter")
        assert shares.shape == (8,)
        assert np.allclose(shares, 1 / 8)

    def test_bottom_level_matches_zipf(self, skewed_schema):
        product = skewed_schema.dimension("product")
        shares = dimension_row_shares(product, "item")
        zipf = product.skew.distribution(200).probabilities()
        assert np.allclose(shares, zipf)

    def test_aggregated_level_sums_to_one(self, skewed_schema):
        shares = dimension_row_shares(skewed_schema.dimension("product"), "group")
        assert shares.sum() == pytest.approx(1.0)
        assert shares.shape == (10,)

    def test_aggregation_preserves_skew_ordering(self, skewed_schema):
        shares = dimension_row_shares(skewed_schema.dimension("product"), "group")
        # Ranked zipf values are assigned contiguously, so the first group
        # (containing the most frequent items) carries the most rows.
        assert shares[0] == shares.max()
        assert shares[-1] == shares.min()

    def test_shares_are_computed_once_per_level_and_read_only(self, skewed_schema):
        from repro.schema import Dimension

        product = skewed_schema.dimension("product")
        text = repr(product)
        first = dimension_row_shares(product, "group")
        assert dimension_row_shares(product, "group") is first
        assert dimension_row_shares(product, "item") is not first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 1.0
        # The memo sits outside the dimension's fields: its repr (which
        # content signatures digest) and its equality are unchanged.
        assert repr(product) == text
        assert product == Dimension(
            product.name, product.levels, product.skew, product.row_size_bytes
        )

    def test_aggregation_consistency_with_bottom(self, skewed_schema):
        product = skewed_schema.dimension("product")
        bottom = dimension_row_shares(product, "item")
        grouped = dimension_row_shares(product, "group")
        # 200 items in 10 groups of 20: group share equals sum of its block.
        assert grouped[0] == pytest.approx(bottom[:20].sum())
        assert grouped[-1] == pytest.approx(bottom[-20:].sum())


class TestLayoutGeometry:
    def test_fragment_count_and_axes(self, toy_schema):
        spec = FragmentationSpec.of(("time", "quarter"), ("product", "group"))
        layout = build_layout(toy_schema, spec)
        assert layout.fragment_count == 80
        assert layout.axis_cardinalities == (8, 10)
        assert layout.axis_dimensions == ("time", "product")

    def test_unfragmented_layout(self, toy_schema):
        layout = build_layout(toy_schema, FragmentationSpec.none())
        assert layout.fragment_count == 1
        assert layout.fragment_rows[0] == pytest.approx(1_000_000)

    def test_flat_index_roundtrip(self, toy_schema):
        spec = FragmentationSpec.of(("time", "quarter"), ("product", "group"))
        layout = build_layout(toy_schema, spec)
        for flat in (0, 1, 9, 10, 79):
            coords = layout.coordinates(flat)
            assert layout.flat_index(coords) == flat

    def test_flat_index_validation(self, toy_schema):
        spec = FragmentationSpec.of(("time", "quarter"), ("product", "group"))
        layout = build_layout(toy_schema, spec)
        with pytest.raises(FragmentationError):
            layout.flat_index((0,))
        with pytest.raises(FragmentationError):
            layout.flat_index((8, 0))
        with pytest.raises(FragmentationError):
            layout.coordinates(80)

    def test_axis_index(self, toy_schema):
        spec = FragmentationSpec.of(("time", "quarter"), ("product", "group"))
        layout = build_layout(toy_schema, spec)
        assert layout.axis_index("time") == 0
        assert layout.axis_index("product") == 1
        with pytest.raises(FragmentationError):
            layout.axis_index("store")


class TestFragmentSizes:
    def test_rows_conserved(self, toy_schema):
        spec = FragmentationSpec.of(("time", "month"), ("store", "region"))
        layout = build_layout(toy_schema, spec)
        assert layout.fragment_rows.sum() == pytest.approx(1_000_000)

    def test_rows_conserved_under_skew(self, skewed_schema):
        spec = FragmentationSpec.of(("product", "item"), ("time", "quarter"))
        layout = build_layout(skewed_schema, spec)
        assert layout.fragment_rows.sum() == pytest.approx(1_000_000)

    def test_uniform_fragments_equal(self, toy_schema):
        spec = FragmentationSpec.of(("time", "quarter"))
        layout = build_layout(toy_schema, spec)
        assert layout.fragment_size_cv == pytest.approx(0.0, abs=1e-12)
        assert layout.min_fragment_pages == layout.max_fragment_pages

    def test_skewed_fragments_differ(self, skewed_schema):
        spec = FragmentationSpec.of(("product", "group"))
        layout = build_layout(skewed_schema, spec)
        assert layout.fragment_size_cv > 0.1
        assert layout.max_fragment_pages > layout.min_fragment_pages

    def test_page_counts_consistent_with_rows(self, toy_schema):
        spec = FragmentationSpec.of(("time", "quarter"), ("product", "group"))
        layout = build_layout(toy_schema, spec, page_size_bytes=8192)
        rows_per_page = layout.rows_per_page
        expected = np.ceil(layout.fragment_rows / rows_per_page)
        assert np.array_equal(layout.fragment_fact_pages, expected.astype(np.int64))

    def test_total_pages_at_least_unfragmented(self, toy_schema):
        base = build_layout(toy_schema, FragmentationSpec.none())
        fine = build_layout(
            toy_schema, FragmentationSpec.of(("time", "month"), ("product", "item"))
        )
        # Per-fragment rounding can only add pages.
        assert fine.total_fact_pages >= base.total_fact_pages

    def test_average_and_extremes(self, toy_schema):
        spec = FragmentationSpec.of(("time", "quarter"))
        layout = build_layout(toy_schema, spec)
        assert layout.average_fragment_pages == pytest.approx(
            layout.total_fact_pages / layout.fragment_count
        )
        assert layout.min_fragment_pages <= layout.average_fragment_pages
        assert layout.average_fragment_pages <= layout.max_fragment_pages

    def test_describe(self, toy_schema):
        layout = build_layout(toy_schema, FragmentationSpec.of(("time", "quarter")))
        text = layout.describe()
        assert "8 fragments" in text


class TestBuildLayoutGuards:
    def test_max_fragments_guard(self, toy_schema):
        spec = FragmentationSpec.of(("time", "month"), ("product", "item"))
        with pytest.raises(FragmentationError):
            build_layout(toy_schema, spec, max_fragments=100)

    def test_invalid_spec_rejected(self, toy_schema):
        with pytest.raises(FragmentationError):
            build_layout(toy_schema, FragmentationSpec.of(("ghost", "x")))

    def test_invalid_page_size(self, toy_schema):
        with pytest.raises(FragmentationError):
            build_layout(
                toy_schema, FragmentationSpec.of(("time", "quarter")), page_size_bytes=0
            )
