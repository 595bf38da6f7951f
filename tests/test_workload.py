"""Unit tests for repro.workload: restrictions, query classes, mixes, generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro import DimensionRestriction, QueryClass, QueryMix
from repro.errors import WorkloadError
from repro.workload import drill_down_series, random_query_class, random_query_mix


class TestDimensionRestriction:
    def test_selectivity_point(self, toy_schema):
        restriction = DimensionRestriction("time", "month")
        assert restriction.selectivity(toy_schema) == pytest.approx(1 / 24)

    def test_selectivity_range(self, toy_schema):
        restriction = DimensionRestriction("time", "month", value_count=6)
        assert restriction.selectivity(toy_schema) == pytest.approx(0.25)

    def test_selectivity_exceeding_cardinality(self, toy_schema):
        restriction = DimensionRestriction("time", "year", value_count=5)
        with pytest.raises(WorkloadError):
            restriction.selectivity(toy_schema)

    def test_describe(self):
        assert "time.month" in DimensionRestriction("time", "month").describe()
        assert "2 values" in DimensionRestriction("time", "month", 2).describe()

    def test_invalid_construction(self):
        with pytest.raises(WorkloadError):
            DimensionRestriction("", "month")
        with pytest.raises(WorkloadError):
            DimensionRestriction("time", "")
        with pytest.raises(WorkloadError):
            DimensionRestriction("time", "month", 0)
        with pytest.raises(WorkloadError):
            DimensionRestriction("time", "month", value_count=2.5)  # type: ignore[arg-type]


class TestQueryClass:
    def test_accessors(self, toy_schema):
        query = QueryClass(
            name="q",
            restrictions=[
                DimensionRestriction("time", "month"),
                DimensionRestriction("product", "group"),
            ],
            weight=2.0,
        )
        assert query.accessed_dimensions == ("time", "product")
        assert query.restricts("time")
        assert not query.restricts("store")
        assert query.restriction_on("product").level == "group"
        assert query.restriction_on("store") is None
        assert set(query.restriction_map()) == {"time", "product"}

    def test_selectivity_is_product(self, toy_schema):
        query = QueryClass(
            name="q",
            restrictions=[
                DimensionRestriction("time", "month"),
                DimensionRestriction("product", "group"),
            ],
        )
        assert query.selectivity(toy_schema) == pytest.approx(1 / 24 / 10)

    def test_empty_restrictions_full_scan(self, toy_schema):
        query = QueryClass(name="scan", restrictions=[])
        assert query.selectivity(toy_schema) == 1.0
        assert "full fact table scan" in query.describe()

    def test_validate_ok(self, toy_schema):
        QueryClass(
            name="q", restrictions=[DimensionRestriction("time", "month")]
        ).validate(toy_schema)

    def test_validate_unknown_dimension(self, toy_schema):
        query = QueryClass(name="q", restrictions=[DimensionRestriction("ghost", "x")])
        with pytest.raises(WorkloadError):
            query.validate(toy_schema)

    def test_validate_unknown_level(self, toy_schema):
        query = QueryClass(name="q", restrictions=[DimensionRestriction("time", "week")])
        with pytest.raises(WorkloadError):
            query.validate(toy_schema)

    def test_validate_too_many_values(self, toy_schema):
        query = QueryClass(
            name="q", restrictions=[DimensionRestriction("time", "year", value_count=10)]
        )
        with pytest.raises(WorkloadError):
            query.validate(toy_schema)

    def test_invalid_construction(self):
        with pytest.raises(WorkloadError):
            QueryClass(name="", restrictions=[])
        for weight in (0, -1.0, float("inf"), float("nan")):
            with pytest.raises(WorkloadError, match="finite positive"):
                QueryClass(name="q", restrictions=[], weight=weight)
        with pytest.raises(WorkloadError):
            QueryClass(
                name="q",
                restrictions=[
                    DimensionRestriction("time", "month"),
                    DimensionRestriction("time", "year"),
                ],
            )


class TestQueryMix:
    def test_shares_sum_to_one(self, toy_workload):
        assert sum(toy_workload.shares().values()) == pytest.approx(1.0)

    def test_share_proportional_to_weight(self, toy_workload):
        shares = toy_workload.shares()
        assert shares["monthly-by-group"] == pytest.approx(0.4)
        assert shares["yearly-report"] == pytest.approx(0.1)

    def test_lookup_and_iteration(self, toy_workload):
        assert toy_workload.query_class("item-tracking").weight == 2
        assert len(toy_workload) == 4
        assert {qc.name for qc in toy_workload} == set(toy_workload.shares())

    def test_lookup_unknown(self, toy_workload):
        with pytest.raises(WorkloadError):
            toy_workload.query_class("nope")

    def test_weighted_sum(self, toy_workload):
        constant = toy_workload.weighted_sum(lambda qc: 5.0)
        assert constant == pytest.approx(5.0)

    def test_dimension_access_shares(self, toy_workload):
        shares = toy_workload.dimension_access_shares()
        assert shares["time"] == pytest.approx(1.0)  # every class restricts time
        assert shares["store"] == pytest.approx(0.3)

    def test_level_access_shares(self, toy_workload):
        shares = toy_workload.level_access_shares()
        assert shares[("time", "month")] == pytest.approx(0.6)
        assert shares[("time", "year")] == pytest.approx(0.1)

    def test_validate(self, toy_schema, toy_workload):
        toy_workload.validate(toy_schema)

    def test_reweighted(self, toy_workload):
        reweighted = toy_workload.reweighted({"yearly-report": 10.0})
        assert reweighted.query_class("yearly-report").weight == 10.0
        # untouched classes keep their weight
        assert reweighted.query_class("item-tracking").weight == 2.0

    def test_reweighted_unknown(self, toy_workload):
        with pytest.raises(WorkloadError, match="ghost"):
            toy_workload.reweighted({"yearly-report": 2.0, "ghost": 3.0})

    def test_without(self, toy_workload):
        smaller = toy_workload.without("yearly-report")
        assert len(smaller) == 3
        with pytest.raises(WorkloadError):
            smaller.query_class("yearly-report")

    def test_without_unknown(self, toy_workload):
        with pytest.raises(WorkloadError):
            toy_workload.without("ghost")

    def test_without_all_rejected(self, toy_workload):
        names = [qc.name for qc in toy_workload]
        with pytest.raises(WorkloadError):
            toy_workload.without(*names)

    def test_empty_mix_rejected(self):
        with pytest.raises(WorkloadError):
            QueryMix([])

    def test_duplicate_names_rejected(self, toy_workload):
        duplicate = list(toy_workload.classes) + [toy_workload.classes[0]]
        with pytest.raises(WorkloadError):
            QueryMix(duplicate)

    def test_describe_lists_classes(self, toy_workload):
        text = toy_workload.describe()
        for query_class in toy_workload:
            assert query_class.name in text


class TestGenerators:
    def test_random_query_class_valid(self, toy_schema):
        rng = np.random.default_rng(3)
        query = random_query_class(toy_schema, "rq", rng=rng)
        query.validate(toy_schema)
        assert 1 <= len(query.restrictions) <= 3

    def test_random_query_class_dimension_bounds(self, toy_schema):
        rng = np.random.default_rng(3)
        query = random_query_class(
            toy_schema, "rq", rng=rng, min_dimensions=2, max_dimensions=2
        )
        assert len(query.restrictions) == 2

    def test_random_query_class_invalid_bounds(self, toy_schema):
        with pytest.raises(WorkloadError):
            random_query_class(toy_schema, "rq", min_dimensions=0)
        with pytest.raises(WorkloadError):
            random_query_class(toy_schema, "rq", min_dimensions=5, max_dimensions=5)

    def test_random_query_mix_reproducible(self, toy_schema):
        mix_a = random_query_mix(toy_schema, num_classes=5, seed=11)
        mix_b = random_query_mix(toy_schema, num_classes=5, seed=11)
        assert [qc.describe() for qc in mix_a] == [qc.describe() for qc in mix_b]
        mix_a.validate(toy_schema)

    def test_random_query_mix_size(self, toy_schema):
        assert len(random_query_mix(toy_schema, num_classes=7, seed=0)) == 7
        with pytest.raises(WorkloadError):
            random_query_mix(toy_schema, num_classes=0)

    def test_drill_down_series(self, toy_schema):
        series = drill_down_series(toy_schema, "time")
        assert [qc.name for qc in series] == [
            "time-by-year",
            "time-by-quarter",
            "time-by-month",
        ]
        for query in series:
            query.validate(toy_schema)

    def test_drill_down_series_with_shared_restrictions(self, toy_schema):
        shared = [DimensionRestriction("product", "group")]
        series = drill_down_series(toy_schema, "time", other_restrictions=shared)
        for query in series:
            assert query.restricts("product")
            query.validate(toy_schema)
