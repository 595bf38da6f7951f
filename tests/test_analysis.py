"""Unit tests for repro.analysis: statistics, reports, profiles, comparison."""

from __future__ import annotations

import pytest

from repro import FragmentationSpec
from repro.analysis import (
    build_database_statistics,
    build_query_statistics,
    compare_candidates,
    disk_access_profile,
    format_allocation_report,
    format_full_report,
    format_query_analysis,
    format_ranking_table,
    format_table,
)
from repro.errors import ReportError


@pytest.fixture(scope="module")
def module_advisor():
    """The toy advisor, rebuilt once per module (module-scoped for speed)."""
    from repro import AdvisorConfig, AdvisorSession, SystemParameters
    from repro import (
        Dimension,
        DimensionRestriction,
        FactTable,
        Level,
        Measure,
        QueryClass,
        QueryMix,
        StarSchema,
    )

    time = Dimension("time", [Level("year", 2), Level("quarter", 8), Level("month", 24)])
    product = Dimension("product", [Level("group", 10), Level("item", 200)])
    store = Dimension("store", [Level("region", 4), Level("store", 40)])
    fact = FactTable("sales", 1_000_000, 64, ("time", "product", "store"), (Measure("revenue", 8),))
    schema = StarSchema("toy", (time, product, store), (fact,))
    workload = QueryMix(
        [
            QueryClass("monthly-by-group", [DimensionRestriction("time", "month"), DimensionRestriction("product", "group")], 4),
            QueryClass("quarterly-by-region", [DimensionRestriction("time", "quarter"), DimensionRestriction("store", "region")], 3),
            QueryClass("yearly-report", [DimensionRestriction("time", "year")], 1),
        ]
    )
    system = SystemParameters(num_disks=8)
    return AdvisorSession(
        schema, workload, system, AdvisorConfig(max_fragments=10_000, top_candidates=5)
    )


@pytest.fixture(scope="module")
def module_recommendation(module_advisor):
    return module_advisor.recommend().recommendation


class TestFormatTable:
    def test_alignment_and_separator(self):
        text = format_table(["a", "bbb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert set(lines[1]) <= {"-", " "}
        assert lines[0].startswith("a")

    def test_mismatched_rows_rejected(self):
        with pytest.raises(ReportError):
            format_table(["a", "b"], [["only one"]])


class TestStatistics:
    def test_database_statistics(self, module_advisor):
        candidate = module_advisor.evaluate_spec(
            FragmentationSpec.of(("time", "month"), ("store", "region"))
        )
        stats = build_database_statistics(candidate)
        assert stats.fragment_count == 96
        assert stats.fact_pages == candidate.layout.total_fact_pages
        assert stats.total_pages == stats.fact_pages + stats.bitmap_pages
        assert stats.min_fragment_pages <= stats.avg_fragment_pages <= stats.max_fragment_pages
        assert set(stats.as_dict()) >= {"fragment_count", "fact_pages", "bitmap_pages"}

    def test_query_statistics(self, module_advisor, module_recommendation):
        candidate = module_recommendation.best
        stats = build_query_statistics(candidate, module_advisor.workload)
        assert len(stats) == 3
        shares = sum(s.workload_share for s in stats)
        assert shares == pytest.approx(1.0)
        for stat in stats:
            assert stat.pages_accessed == pytest.approx(
                stat.fact_pages_accessed + stat.bitmap_pages_accessed
            )
            assert 0 <= stat.fragment_hit_ratio <= 1
            assert stat.io_cost_ms > 0
            assert "query" in stat.as_dict()

    def test_query_statistics_workload_mismatch(self, module_advisor, module_recommendation):
        wrong_workload = module_advisor.workload.without("yearly-report")
        with pytest.raises(ReportError):
            build_query_statistics(module_recommendation.best, wrong_workload)


class TestReports:
    def test_ranking_table_lists_all_ranked(self, module_recommendation):
        text = format_ranking_table(module_recommendation)
        for ranked in module_recommendation.ranked:
            assert ranked.candidate.label in text
        assert "I/O cost" in text

    def test_query_analysis_contains_fig2_sections(self, module_advisor, module_recommendation):
        text = format_query_analysis(module_recommendation.best, module_advisor.workload)
        assert "Database statistic" in text
        assert "I/O access statistic" in text
        assert "Prefetch granule suggestion" in text
        assert "Bitmap scheme" in text
        for query_class in module_advisor.workload:
            assert query_class.name in text

    def test_allocation_report(self, module_recommendation):
        text = format_allocation_report(module_recommendation.best)
        assert "Physical allocation scheme" in text
        assert "most occupied" in text

    def test_full_report_combines_sections(self, module_recommendation):
        text = format_full_report(module_recommendation, detail_top=1)
        assert "WARLOCK recommendation" in text
        assert "Database statistic" in text
        assert "Physical allocation scheme" in text

    def test_full_report_invalid_detail(self, module_recommendation):
        with pytest.raises(ReportError):
            format_full_report(module_recommendation, detail_top=-1)


class TestDiskAccessProfile:
    def test_profile_shape_and_totals(self, module_advisor, module_recommendation):
        candidate = module_recommendation.best
        query_class = module_advisor.workload.query_class("quarterly-by-region")
        profile = disk_access_profile(candidate, query_class, samples=5, seed=1)
        assert profile.num_disks == module_advisor.system.num_disks
        assert profile.total_pages > 0
        assert 1 <= profile.disks_touched <= profile.num_disks
        assert profile.max_over_mean >= 1.0
        assert query_class.name in profile.describe()

    def test_profile_reproducible(self, module_advisor, module_recommendation):
        candidate = module_recommendation.best
        query_class = module_advisor.workload.query_class("monthly-by-group")
        first = disk_access_profile(candidate, query_class, samples=3, seed=7)
        second = disk_access_profile(candidate, query_class, samples=3, seed=7)
        assert first.pages_per_disk.tolist() == second.pages_per_disk.tolist()

    def test_invalid_samples(self, module_advisor, module_recommendation):
        query_class = module_advisor.workload.query_class("monthly-by-group")
        with pytest.raises(ReportError):
            disk_access_profile(module_recommendation.best, query_class, samples=0)


class TestCompareCandidates:
    def test_compare_without_baseline(self, module_recommendation):
        candidates = [r.candidate for r in module_recommendation.ranked]
        text = compare_candidates(candidates)
        for candidate in candidates:
            assert candidate.label in text

    def test_compare_with_baseline_adds_ratios(self, module_recommendation):
        candidates = [r.candidate for r in module_recommendation.ranked]
        text = compare_candidates(candidates, baseline=candidates[0])
        assert "I/O vs base" in text
        assert "1.00x" in text

    def test_compare_empty_rejected(self):
        with pytest.raises(ReportError):
            compare_candidates([])
