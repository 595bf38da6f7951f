"""Unit tests for repro.analysis.charts: ASCII bar charts."""

from __future__ import annotations

import pytest

from repro import AdvisorConfig, AdvisorSession, FragmentationSpec, SystemParameters
from repro.analysis import (
    access_profile_chart,
    bar_chart,
    disk_access_profile,
    occupancy_chart,
    tradeoff_chart,
)
from repro.errors import ReportError


@pytest.fixture(scope="module")
def chart_candidate():
    from repro import (
        Dimension,
        DimensionRestriction,
        FactTable,
        Level,
        QueryClass,
        QueryMix,
        StarSchema,
    )

    time = Dimension("time", [Level("year", 2), Level("month", 24)])
    product = Dimension("product", [Level("group", 10), Level("item", 200)])
    fact = FactTable("sales", 500_000, 64, ("time", "product"))
    schema = StarSchema("charts", (time, product), (fact,))
    workload = QueryMix(
        [
            QueryClass("by-month", [DimensionRestriction("time", "month")], 2),
            QueryClass(
                "by-group",
                [DimensionRestriction("product", "group"), DimensionRestriction("time", "year")],
                1,
            ),
        ]
    )
    system = SystemParameters(num_disks=8)
    advisor = AdvisorSession(schema, workload, system, AdvisorConfig(max_fragments=10_000))
    candidate = advisor.evaluate_spec(FragmentationSpec.of(("time", "month")))
    return advisor, candidate


class TestBarChart:
    def test_basic_rendering(self):
        chart = bar_chart([1, 2, 4], labels=["a", "b", "c"], width=8, title="demo")
        lines = chart.splitlines()
        assert lines[0] == "demo"
        assert len(lines) == 4
        # The largest value gets the full width, the smallest a quarter of it.
        assert lines[3].count("#") == 8
        assert lines[1].count("#") == 2

    def test_mapping_input(self):
        chart = bar_chart({"x": 10.0, "y": 5.0}, width=10)
        assert "x" in chart and "y" in chart
        assert chart.splitlines()[0].count("#") == 10

    def test_all_zero_values(self):
        chart = bar_chart([0, 0], labels=["a", "b"], width=10)
        assert chart.count("#") == 0

    def test_value_format(self):
        chart = bar_chart([1.234], labels=["a"], width=5, value_format="{:.2f}")
        assert "1.23" in chart

    def test_invalid_input(self):
        with pytest.raises(ReportError):
            bar_chart([])
        with pytest.raises(ReportError):
            bar_chart([1, 2], labels=["only-one"])
        with pytest.raises(ReportError):
            bar_chart([1], width=0)
        with pytest.raises(ReportError):
            bar_chart([-1.0])


class TestOccupancyChart:
    def test_small_configuration_lists_every_disk(self, chart_candidate):
        _, candidate = chart_candidate
        chart = occupancy_chart(candidate)
        assert "disk 0" in chart and "disk 7" in chart
        assert candidate.label in chart

    def test_large_configuration_is_summarized(self, chart_candidate):
        advisor, _ = chart_candidate
        wide_advisor = AdvisorSession(
            advisor.schema,
            advisor.workload,
            SystemParameters(num_disks=128),
            AdvisorConfig(max_fragments=10_000),
        )
        candidate = wide_advisor.evaluate_spec(FragmentationSpec.of(("product", "item")))
        chart = occupancy_chart(candidate, max_disks=16)
        assert "most and" in chart
        assert chart.count("disk ") <= 17


class TestAccessProfileChart:
    def test_renders_profile(self, chart_candidate):
        advisor, candidate = chart_candidate
        profile = disk_access_profile(
            candidate, advisor.workload.query_class("by-month"), samples=3, seed=0
        )
        chart = access_profile_chart(profile.pages_per_disk, "by-month")
        assert "by-month" in chart
        assert chart.count("disk") >= advisor.system.num_disks

    def test_aggregates_many_disks(self):
        chart = access_profile_chart(list(range(100)), "wide", max_disks=10)
        assert "aggregated" in chart

    def test_empty_rejected(self):
        with pytest.raises(ReportError):
            access_profile_chart([], "none")


class TestTradeoffChart:
    def test_both_metrics(self, chart_candidate):
        advisor, candidate = chart_candidate
        other = advisor.evaluate_spec(FragmentationSpec.of(("product", "item")))
        chart = tradeoff_chart([candidate, other])
        assert "I/O cost" in chart and "Response time" in chart
        assert candidate.label in chart and other.label in chart

    def test_single_metric(self, chart_candidate):
        _, candidate = chart_candidate
        chart = tradeoff_chart([candidate], metric="io_cost")
        assert "I/O cost" in chart and "Response time" not in chart

    def test_invalid(self, chart_candidate):
        _, candidate = chart_candidate
        with pytest.raises(ReportError):
            tradeoff_chart([])
        with pytest.raises(ReportError):
            tradeoff_chart([candidate], metric="latency")
