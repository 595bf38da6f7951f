"""Integration tests for the full advisor pipeline (repro.core.advisor)."""

from __future__ import annotations

import pytest

from repro import (
    AdvisorConfig,
    AdvisorSession,
    FragmentationSpec,
    QueryClass,
    QueryMix,
    DimensionRestriction,
    SystemParameters,
    format_query_analysis,
)
from repro.errors import AdvisorError, WorkloadError


class TestWarlockConstruction:
    def test_construction_validates_workload(self, toy_schema, small_system):
        bad_mix = QueryMix([QueryClass("q", [DimensionRestriction("ghost", "x")])])
        with pytest.raises(WorkloadError):
            AdvisorSession(toy_schema, bad_mix, small_system)

    def test_default_config(self, toy_schema, toy_workload, small_system):
        advisor = AdvisorSession(toy_schema, toy_workload, small_system)
        assert advisor.config.top_fraction == 0.25
        assert advisor.fact.name == "sales"

    def test_explicit_fact_table(self, toy_schema, toy_workload, small_system):
        advisor = AdvisorSession(toy_schema, toy_workload, small_system, fact_table="sales")
        assert advisor.fact.name == "sales"


class TestCandidateGeneration:
    def test_generate_specs_excludes_and_survives(self, toy_advisor):
        surviving, report = toy_advisor.generate_specs()
        assert report.considered == 35  # 4*3*3 - 1 point fragmentations
        assert report.surviving_count == len(surviving)
        assert report.excluded_count + report.surviving_count == report.considered
        assert len(surviving) > 0

    def test_all_survivors_pass_thresholds(self, toy_advisor):
        surviving, _ = toy_advisor.generate_specs()
        for spec in surviving:
            fragments = spec.fragment_count(toy_advisor.schema)
            assert fragments >= toy_advisor.system.num_disks
            assert fragments <= toy_advisor.config.max_fragments

    def test_all_excluded_raises(self, toy_schema, toy_workload):
        # Demand more fragments than any candidate can produce.
        system = SystemParameters(num_disks=8)
        config = AdvisorConfig(min_fragments=10_000_000, max_fragments=20_000_000)
        advisor = AdvisorSession(toy_schema, toy_workload, system, config)
        with pytest.raises(AdvisorError):
            advisor.generate_specs()

    def test_max_dimensionality_respected(self, toy_schema, toy_workload, small_system):
        config = AdvisorConfig(max_fragmentation_dimensions=1, max_fragments=10_000)
        advisor = AdvisorSession(toy_schema, toy_workload, small_system, config)
        surviving, _ = advisor.generate_specs()
        assert all(spec.dimensionality <= 1 for spec in surviving)


class TestEvaluation:
    def test_evaluate_spec_produces_complete_candidate(self, toy_advisor):
        spec = FragmentationSpec.of(("time", "month"), ("store", "region"))
        candidate = toy_advisor.evaluate_spec(spec)
        assert candidate.spec == spec
        assert candidate.fragment_count == 96
        assert candidate.io_cost_ms > 0
        assert candidate.response_time_ms > 0
        assert candidate.allocation.total_pages > 0
        assert candidate.prefetch.fact_pages >= 1
        assert len(candidate.evaluation.per_class) == 4

    def test_candidate_summary_keys(self, toy_advisor):
        spec = FragmentationSpec.of(("time", "month"), ("store", "region"))
        summary = toy_advisor.evaluate_spec(spec).summary()
        assert {"fragmentation", "fragments", "io_cost_ms", "response_time_ms"} <= set(summary)

    def test_evaluate_candidates_with_explicit_specs(self, toy_advisor):
        specs = [
            FragmentationSpec.of(("time", "month")),
            FragmentationSpec.of(("time", "quarter"), ("product", "group")),
        ]
        candidates = toy_advisor.engine.evaluate_specs(specs)
        assert len(candidates) == 2


class TestRecommendation:
    def test_recommend_end_to_end(self, toy_advisor):
        recommendation = toy_advisor.recommend().recommendation
        assert len(recommendation.ranked) >= 1
        assert recommendation.best is recommendation.ranked[0].candidate
        assert recommendation.exclusion_report.considered == 35
        assert len(recommendation.evaluated) == recommendation.exclusion_report.surviving_count

    def test_ranking_is_consistent_with_metrics(self, toy_advisor):
        recommendation = toy_advisor.recommend().recommendation
        responses = [r.response_time_ms for r in recommendation.ranked]
        assert responses == sorted(responses)

    def test_best_beats_average_candidate(self, toy_advisor):
        """The recommended fragmentation must be no worse than the average
        evaluated candidate on both metrics it was selected by."""
        recommendation = toy_advisor.recommend().recommendation
        mean_io = sum(c.io_cost_ms for c in recommendation.evaluated) / len(
            recommendation.evaluated
        )
        assert recommendation.best.io_cost_ms <= mean_io

    def test_candidate_lookup(self, toy_advisor):
        recommendation = toy_advisor.recommend().recommendation
        label = recommendation.best.label
        assert recommendation.candidate(label).label == label
        with pytest.raises(AdvisorError):
            recommendation.candidate("no such fragmentation")

    def test_describe(self, toy_advisor):
        text = toy_advisor.recommend().recommendation.describe()
        assert "WARLOCK recommendation" in text
        assert "Top" in text

    def test_analyze_returns_report(self, toy_advisor):
        recommendation = toy_advisor.recommend().recommendation
        report = format_query_analysis(recommendation.best, toy_advisor.workload)
        assert "Database statistic" in report
        assert "Prefetch granule suggestion" in report

    def test_deterministic_recommendation(self, toy_schema, toy_workload, small_system):
        config = AdvisorConfig(max_fragments=10_000, top_candidates=5)
        first = AdvisorSession(
            toy_schema, toy_workload, small_system, config
        ).recommend().recommendation
        second = AdvisorSession(
            toy_schema, toy_workload, small_system, config
        ).recommend().recommendation
        assert [r.label for r in first.ranked] == [r.label for r in second.ranked]

    def test_workload_reweighting_changes_outcome_inputs(self, toy_schema, toy_workload, small_system):
        """Re-weighting the mix (interactive fine-tuning) changes the evaluation."""
        config = AdvisorConfig(max_fragments=10_000)
        base = AdvisorSession(
            toy_schema, toy_workload, small_system, config
        ).recommend().recommendation
        shifted_mix = toy_workload.reweighted({"yearly-report": 1000.0})
        shifted = AdvisorSession(
            toy_schema, shifted_mix, small_system, config
        ).recommend().recommendation
        base_by_label = {c.label: c for c in base.evaluated}
        changed = [
            c.label
            for c in shifted.evaluated
            if abs(c.io_cost_ms - base_by_label[c.label].io_cost_ms) > 1e-6
        ]
        assert changed  # the evaluation reacted to the new weights


class TestApb1Integration:
    """End-to-end run on the (scaled-down) APB-1 configuration of the demo."""

    @pytest.fixture(scope="class")
    def recommendation(self, apb_small_schema, apb_workload):
        system = SystemParameters(num_disks=32)
        config = AdvisorConfig(max_fragments=50_000, top_candidates=10)
        return AdvisorSession(
            apb_small_schema, apb_workload, system, config
        ).recommend().recommendation

    def test_produces_ranked_list(self, recommendation):
        assert 1 <= len(recommendation.ranked) <= 10

    def test_winner_uses_workload_dimensions(self, recommendation):
        """The winning fragmentation uses dimensions the workload actually restricts."""
        shares = recommendation.workload.dimension_access_shares()
        for attribute in recommendation.best.spec.attributes:
            assert shares.get(attribute.dimension, 0.0) > 0.0

    def test_winner_beats_single_fragment_style_candidates(self, recommendation):
        """Fragmented winners dominate coarse candidates on response time."""
        coarse = [c for c in recommendation.evaluated if c.fragment_count <= 64]
        if coarse:
            best_coarse = min(c.response_time_ms for c in coarse)
            assert recommendation.best.response_time_ms <= best_coarse * 1.5

    def test_allocation_fits_capacity(self, recommendation):
        assert recommendation.best.allocation.fits_capacity()
