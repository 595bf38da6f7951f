"""Unit tests for repro.fragmentation.spec and enumeration."""

from __future__ import annotations

import pytest

from repro import FragmentationAttribute, FragmentationSpec, enumerate_point_fragmentations
from repro.errors import FragmentationError
from repro.fragmentation import count_point_fragmentations


class TestFragmentationAttribute:
    def test_cardinality(self, toy_schema):
        attribute = FragmentationAttribute("time", "quarter")
        assert attribute.cardinality(toy_schema) == 8

    def test_describe(self):
        assert FragmentationAttribute("time", "month").describe() == "time.month"

    def test_invalid(self):
        with pytest.raises(FragmentationError):
            FragmentationAttribute("", "month")
        with pytest.raises(FragmentationError):
            FragmentationAttribute("time", "")


class TestFragmentationSpec:
    def test_of_constructor(self):
        spec = FragmentationSpec.of(("time", "month"), ("product", "group"))
        assert spec.dimensionality == 2
        assert spec.dimensions == ("time", "product")
        assert spec.is_fragmented
        assert not spec.is_one_dimensional

    def test_none_baseline(self):
        spec = FragmentationSpec.none()
        assert spec.dimensionality == 0
        assert not spec.is_fragmented
        assert spec.label == "(unfragmented)"

    def test_one_dimensional(self):
        spec = FragmentationSpec.of(("time", "quarter"))
        assert spec.is_one_dimensional

    def test_fragment_count(self, toy_schema):
        spec = FragmentationSpec.of(("time", "quarter"), ("product", "group"))
        assert spec.fragment_count(toy_schema) == 8 * 10
        assert spec.axis_cardinalities(toy_schema) == (8, 10)

    def test_fragment_count_baseline(self, toy_schema):
        assert FragmentationSpec.none().fragment_count(toy_schema) == 1

    def test_uses_dimension_and_attribute_for(self):
        spec = FragmentationSpec.of(("time", "month"))
        assert spec.uses_dimension("time")
        assert not spec.uses_dimension("product")
        assert spec.attribute_for("time").level == "month"
        assert spec.attribute_for("product") is None

    def test_duplicate_dimension_rejected(self):
        with pytest.raises(FragmentationError):
            FragmentationSpec.of(("time", "month"), ("time", "year"))

    def test_validate_ok(self, toy_schema):
        FragmentationSpec.of(("time", "month"), ("store", "region")).validate(toy_schema)

    def test_validate_unknown_dimension(self, toy_schema):
        with pytest.raises(FragmentationError):
            FragmentationSpec.of(("ghost", "x")).validate(toy_schema)

    def test_validate_unknown_level(self, toy_schema):
        with pytest.raises(FragmentationError):
            FragmentationSpec.of(("time", "week")).validate(toy_schema)

    def test_label_and_describe(self, toy_schema):
        spec = FragmentationSpec.of(("time", "quarter"), ("product", "group"))
        assert spec.label == "time.quarter x product.group"
        assert "80 fragments" in spec.describe(toy_schema)
        assert str(spec) == spec.label


class TestEnumeration:
    def test_candidate_space_size(self, toy_schema):
        # Per-dimension choices: time 3+1, product 2+1, store 2+1 -> 4*3*3 - 1.
        expected = 4 * 3 * 3 - 1
        specs = list(enumerate_point_fragmentations(toy_schema))
        assert len(specs) == expected
        assert count_point_fragmentations(toy_schema) == expected

    def test_baseline_inclusion(self, toy_schema):
        with_baseline = list(
            enumerate_point_fragmentations(toy_schema, include_baseline=True)
        )
        without = list(enumerate_point_fragmentations(toy_schema))
        assert len(with_baseline) == len(without) + 1
        assert with_baseline[0].dimensionality == 0

    def test_max_dimensions_filter(self, toy_schema):
        one_dim = list(enumerate_point_fragmentations(toy_schema, max_dimensions=1))
        assert all(spec.dimensionality == 1 for spec in one_dim)
        # 3 + 2 + 2 single-attribute candidates.
        assert len(one_dim) == 7

    def test_all_specs_unique_and_valid(self, toy_schema):
        specs = list(enumerate_point_fragmentations(toy_schema))
        labels = [spec.label for spec in specs]
        assert len(set(labels)) == len(labels)
        for spec in specs:
            spec.validate(toy_schema)

    def test_at_most_one_attribute_per_dimension(self, toy_schema):
        for spec in enumerate_point_fragmentations(toy_schema):
            dims = [a.dimension for a in spec.attributes]
            assert len(set(dims)) == len(dims)

    def test_invalid_max_dimensions(self, toy_schema):
        with pytest.raises(FragmentationError):
            list(enumerate_point_fragmentations(toy_schema, max_dimensions=-1))

    def test_deterministic_order(self, toy_schema):
        first = [spec.label for spec in enumerate_point_fragmentations(toy_schema)]
        second = [spec.label for spec in enumerate_point_fragmentations(toy_schema)]
        assert first == second

    @pytest.mark.parametrize("include_baseline", [False, True])
    @pytest.mark.parametrize("schema_name", ["apb1", "full"])
    def test_order_equals_product_and_filter(self, schema_name, include_baseline):
        """Prefix expansion yields exactly the filtered product, in its order."""
        from itertools import product

        from repro import apb1_schema, synthetic_schema

        if schema_name == "apb1":
            schema = apb1_schema()
        else:
            schema = synthetic_schema(
                num_dimensions=7,
                levels_per_dimension=3,
                bottom_cardinality=400,
                fact_rows=30_000_000,
            )
        fact = schema.fact_table()
        choices = [
            [None]
            + [
                FragmentationAttribute(dimension_name, level.name)
                for level in schema.dimension(dimension_name).levels
            ]
            for dimension_name in fact.dimension_names
        ]
        num_dimensions = len(fact.dimension_names)
        for max_dimensions in (None, 0, 1, 2, 3, num_dimensions + 1):
            expected = [FragmentationSpec.none()] if include_baseline else []
            for combination in product(*choices):
                attributes = tuple(a for a in combination if a is not None)
                if attributes and (
                    max_dimensions is None or len(attributes) <= max_dimensions
                ):
                    expected.append(FragmentationSpec(attributes))
            got = list(
                enumerate_point_fragmentations(
                    schema,
                    max_dimensions=max_dimensions,
                    include_baseline=include_baseline,
                )
            )
            assert got == expected, (schema_name, max_dimensions)
        if schema_name == "full":
            assert count_point_fragmentations(schema, max_dimensions=3) == 1155
