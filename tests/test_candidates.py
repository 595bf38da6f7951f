"""Tests for candidate objects, the error hierarchy and additional advisor paths."""

from __future__ import annotations

import pytest

import repro
from repro import (
    AdvisorConfig,
    AdvisorSession,
    FragmentationSpec,
    SystemParameters,
    retail_query_mix,
    retail_schema,
)
from repro.errors import (
    AdvisorError,
    AllocationError,
    BitmapError,
    CostModelError,
    FragmentationError,
    ReportError,
    SchemaError,
    SimulationError,
    StorageError,
    WarlockError,
    WorkloadError,
)


class TestErrorHierarchy:
    def test_all_errors_derive_from_warlock_error(self):
        for error_type in (
            SchemaError,
            WorkloadError,
            FragmentationError,
            AllocationError,
            CostModelError,
            BitmapError,
            StorageError,
            AdvisorError,
            SimulationError,
            ReportError,
        ):
            assert issubclass(error_type, WarlockError)
            assert issubclass(error_type, Exception)

    def test_catching_base_class_catches_specific(self, toy_schema):
        with pytest.raises(WarlockError):
            toy_schema.dimension("does-not-exist")

    def test_public_api_exports_every_error(self):
        for name in (
            "WarlockError",
            "SchemaError",
            "WorkloadError",
            "FragmentationError",
            "AllocationError",
            "CostModelError",
            "BitmapError",
            "StorageError",
            "AdvisorError",
            "SimulationError",
            "ReportError",
        ):
            assert hasattr(repro, name)


class TestPublicApiSurface:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ exports missing attribute {name}"

    def test_version_is_semver_like(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(part.isdigit() for part in parts)


class TestFragmentationCandidate:
    @pytest.fixture(scope="class")
    def candidate(self):
        schema = retail_schema(scale=0.01)
        workload = retail_query_mix()
        system = SystemParameters(num_disks=16)
        advisor = AdvisorSession(schema, workload, system, AdvisorConfig(max_fragments=50_000))
        spec = FragmentationSpec.of(("date", "month"), ("store", "region"))
        return advisor.evaluate_spec(spec)

    def test_headline_metrics_consistent_with_evaluation(self, candidate):
        assert candidate.io_cost_ms == pytest.approx(
            candidate.evaluation.total_io_cost_ms
        )
        assert candidate.response_time_ms == pytest.approx(
            candidate.evaluation.total_response_time_ms
        )
        assert candidate.fragment_count == candidate.layout.fragment_count
        assert candidate.pages_accessed == pytest.approx(
            candidate.evaluation.total_pages_accessed
        )
        assert candidate.io_requests == pytest.approx(
            candidate.evaluation.total_io_requests
        )

    def test_summary_matches_attributes(self, candidate):
        summary = candidate.summary()
        assert summary["fragmentation"] == candidate.label
        assert summary["fragments"] == candidate.fragment_count
        assert summary["io_cost_ms"] == pytest.approx(candidate.io_cost_ms)
        assert summary["allocation_scheme"] == candidate.allocation.scheme
        assert summary["prefetch_fact_pages"] == candidate.prefetch.fact_pages
        assert summary["dimensionality"] == 2

    def test_bitmap_storage_pages_positive(self, candidate):
        assert candidate.bitmap_storage_pages > 0

    def test_describe_mentions_label_and_metrics(self, candidate):
        text = candidate.describe()
        assert candidate.label in text
        assert "fragments" in text


class TestRetailIntegration:
    """End-to-end advisor run on the second (skewed) bundled dataset."""

    @pytest.fixture(scope="class")
    def recommendation(self):
        schema = retail_schema(scale=0.02)
        workload = retail_query_mix()
        system = SystemParameters(num_disks=32)
        advisor = AdvisorSession(schema, workload, system, AdvisorConfig(max_fragments=100_000))
        return advisor.recommend().recommendation

    def test_ranking_produced(self, recommendation):
        assert len(recommendation.ranked) >= 1
        assert recommendation.best.fragment_count >= 32

    def test_skewed_candidates_get_greedy_allocation(self, recommendation):
        skewed = [
            candidate
            for candidate in recommendation.evaluated
            if candidate.layout.fragment_size_cv > 0.10
        ]
        assert skewed, "the retail dataset should produce skewed candidates"
        assert all(c.allocation.scheme == "greedy_size" for c in skewed)

    def test_uniform_candidates_get_round_robin(self, recommendation):
        uniform = [
            candidate
            for candidate in recommendation.evaluated
            if candidate.layout.fragment_size_cv <= 0.10
        ]
        assert uniform
        assert all(c.allocation.scheme == "round_robin" for c in uniform)

    def test_winner_uses_date_dimension(self, recommendation):
        # Every retail query class restricts the date dimension, so the winner
        # fragments on it.
        assert "date" in recommendation.best.spec.dimensions


class TestBaselineInclusion:
    def test_baseline_participates_when_requested(self, toy_schema, toy_workload, small_system):
        config = AdvisorConfig(
            include_baseline=True, max_fragments=10_000, top_fraction=1.0
        )
        advisor = AdvisorSession(toy_schema, toy_workload, small_system, config)
        recommendation = advisor.recommend().recommendation
        labels = [candidate.label for candidate in recommendation.evaluated]
        assert "(unfragmented)" in labels
        # The baseline never wins under a parallel workload.
        assert recommendation.best.label != "(unfragmented)"

    def test_baseline_absent_by_default(self, toy_advisor):
        recommendation = toy_advisor.recommend().recommendation
        labels = [candidate.label for candidate in recommendation.evaluated]
        assert "(unfragmented)" not in labels
