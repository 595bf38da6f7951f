"""Unit tests for repro.core.config and repro.core.thresholds."""

from __future__ import annotations

import pytest

from repro import AdvisorConfig, FragmentationSpec, SystemParameters
from repro.core.thresholds import ExclusionReport, evaluate_thresholds
from repro.errors import AdvisorError
from repro.storage import DiskParameters


class TestAdvisorConfig:
    def test_defaults(self):
        config = AdvisorConfig()
        assert config.top_fraction == 0.25
        assert config.top_candidates == 10
        assert config.max_fragments == 100_000
        assert not config.include_baseline

    def test_resolved_min_fragments_defaults_to_disks(self):
        config = AdvisorConfig()
        assert config.resolved_min_fragments(64) == 64
        assert AdvisorConfig(min_fragments=10).resolved_min_fragments(64) == 10

    def test_resolved_min_fragment_pages(self):
        assert AdvisorConfig().resolved_min_fragment_pages(16) == 16
        assert AdvisorConfig(min_fragment_pages=4).resolved_min_fragment_pages(16) == 4

    def test_invalid_values(self):
        with pytest.raises(AdvisorError):
            AdvisorConfig(top_fraction=0.0)
        with pytest.raises(AdvisorError):
            AdvisorConfig(top_fraction=1.5)
        with pytest.raises(AdvisorError):
            AdvisorConfig(top_candidates=0)
        with pytest.raises(AdvisorError):
            AdvisorConfig(max_fragmentation_dimensions=0)
        with pytest.raises(AdvisorError):
            AdvisorConfig(min_fragments=0)
        with pytest.raises(AdvisorError):
            AdvisorConfig(max_fragments=0)
        with pytest.raises(AdvisorError):
            AdvisorConfig(min_fragment_pages=0)
        with pytest.raises(AdvisorError):
            AdvisorConfig(bitmap_cardinality_threshold=0)
        with pytest.raises(AdvisorError):
            AdvisorConfig(allocation_skew_cv=-0.1)
        with pytest.raises(AdvisorError):
            AdvisorConfig(min_fragments=1000, max_fragments=10)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("top_candidates", 2.5),
            ("top_candidates", True),
            ("max_fragments", True),
            ("max_fragments", 16.0),
            ("max_fragmentation_dimensions", 1.5),
            ("min_fragments", "4"),
            ("min_fragment_pages", 2.0),
            ("bitmap_cardinality_threshold", None),
            ("top_fraction", True),
            ("top_fraction", "0.5"),
            ("top_fraction", float("nan")),
            ("allocation_skew_cv", float("inf")),
            ("allocation_skew_cv", None),
            ("include_baseline", "no"),
            ("include_baseline", 1),
        ],
    )
    def test_wrong_typed_fields_are_rejected(self, field, value):
        # int() would truncate 2.5 and read True as 1, and any non-empty
        # string is truthy: every field takes only its own type.
        with pytest.raises(AdvisorError, match=field):
            AdvisorConfig(**{field: value})

    def test_integral_numbers_and_unset_optionals_are_accepted(self):
        config = AdvisorConfig(
            top_fraction=1,
            allocation_skew_cv=0,
            max_fragmentation_dimensions=None,
            include_baseline=True,
        )
        assert config.top_fraction == 1 and config.allocation_skew_cv == 0


class TestEvaluateThresholds:
    def evaluate(self, toy_schema, spec, system=None, config=None):
        system = system if system is not None else SystemParameters(num_disks=8)
        config = config if config is not None else AdvisorConfig()
        fact = toy_schema.fact_table()
        return evaluate_thresholds(spec, toy_schema, fact, system, config)

    def test_good_candidate_passes(self, toy_schema):
        spec = FragmentationSpec.of(("time", "month"), ("store", "region"))
        assert self.evaluate(toy_schema, spec) == []

    def test_too_few_fragments_excluded(self, toy_schema):
        spec = FragmentationSpec.of(("time", "year"))  # 2 fragments < 8 disks
        violations = self.evaluate(toy_schema, spec)
        assert any("minimum" in v for v in violations)

    def test_too_many_fragments_excluded(self, toy_schema):
        spec = FragmentationSpec.of(("time", "month"), ("product", "item"), ("store", "store"))
        config = AdvisorConfig(max_fragments=1000)
        violations = self.evaluate(toy_schema, spec, config=config)
        assert any("exceed" in v for v in violations)

    def test_fragment_size_below_prefetch_granule_excluded(self, toy_schema):
        # 192,000 fragments of a ~1M row / ~7.8k page table: far below 16 pages.
        spec = FragmentationSpec.of(("time", "month"), ("product", "item"), ("store", "store"))
        violations = self.evaluate(toy_schema, spec)
        assert any("prefetching granule" in v for v in violations)

    def test_capacity_violation(self, toy_schema, tiny_disk_system):
        spec = FragmentationSpec.of(("time", "month"), ("store", "region"))
        violations = self.evaluate(toy_schema, spec, system=tiny_disk_system)
        assert any("capacity" in v.lower() or "holds" in v for v in violations)

    def test_baseline_not_checked_for_min_fragments(self, toy_schema):
        violations = self.evaluate(toy_schema, FragmentationSpec.none())
        assert not any("minimum" in v for v in violations)

    def test_fixed_prefetch_used_as_hint(self, toy_schema):
        spec = FragmentationSpec.of(("time", "month"), ("product", "group"), ("store", "region"))
        small_prefetch = SystemParameters(num_disks=8, prefetch_pages_fact=1)
        large_prefetch = SystemParameters(num_disks=8, prefetch_pages_fact=512)
        assert self.evaluate(toy_schema, spec, system=small_prefetch) == []
        violations = self.evaluate(toy_schema, spec, system=large_prefetch)
        assert any("prefetching granule" in v for v in violations)


class TestExclusionReport:
    def test_records_and_counts(self, toy_schema):
        report = ExclusionReport()
        good = FragmentationSpec.of(("time", "month"))
        bad = FragmentationSpec.of(("time", "year"))
        report.record(good, [])
        report.record(bad, ["too few fragments (< minimum)"])
        assert report.considered == 2
        assert report.excluded_count == 1
        assert report.surviving_count == 1
        assert report.reasons_for(bad.label) is not None
        assert report.reasons_for(good.label) is None

    def test_violation_histogram(self):
        report = ExclusionReport()
        report.record(FragmentationSpec.of(("a", "x")), ["only 2 fragments (< minimum 8)"])
        report.record(FragmentationSpec.of(("b", "y")), ["only 3 fragments (< minimum 8)"])
        histogram = report.violation_histogram()
        assert sum(histogram.values()) == 2

    def test_describe(self):
        report = ExclusionReport()
        report.record(FragmentationSpec.of(("a", "x")), ["reason"])
        text = report.describe()
        assert "1" in text and "a.x" in text
