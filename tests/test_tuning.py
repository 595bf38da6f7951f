"""Unit tests for repro.tuning: what-if studies over a fixed fragmentation."""

from __future__ import annotations

import pytest

from repro import (
    AdvisorConfig,
    AdvisorSession,
    Dimension,
    DimensionRestriction,
    EngineOptions,
    FactTable,
    FragmentationSpec,
    Level,
    QueryClass,
    QueryMix,
    SkewSpec,
    StarSchema,
    SystemParameters,
    TuneRequest,
    architecture_study,
    bitmap_exclusion_study,
    disk_count_study,
    prefetch_study,
    skew_study,
    workload_weight_study,
)
from repro.errors import AdvisorError
from repro.tuning import STUDIES, TuningStudy
from repro.tuning.studies import _candidate_metrics

SPEC = FragmentationSpec.of(("time", "month"), ("store", "region"))
CONFIG = AdvisorConfig(max_fragments=50_000)


class TestTuningStudyObject:
    def make_study(self) -> TuningStudy:
        return TuningStudy(
            name="demo",
            parameter="setting",
            records=(
                ("a", {"io_cost_ms": 10.0, "response_time_ms": 5.0, "pages_accessed": 1,
                       "io_requests": 1, "bitmap_pages": 0, "occupancy_cv": 0.0,
                       "allocation_scheme": "round_robin"}),
                ("b", {"io_cost_ms": 8.0, "response_time_ms": 7.0, "pages_accessed": 1,
                       "io_requests": 1, "bitmap_pages": 0, "occupancy_cv": 0.0,
                       "allocation_scheme": "round_robin"}),
            ),
        )

    def test_settings_and_lookup(self):
        study = self.make_study()
        assert study.settings == ["a", "b"]
        assert study.metrics_for("b")["io_cost_ms"] == 8.0
        with pytest.raises(AdvisorError):
            study.metrics_for("c")

    def test_best_setting_per_metric(self):
        study = self.make_study()
        assert study.best_setting("response_time_ms") == "a"
        assert study.best_setting("io_cost_ms") == "b"

    def test_series(self):
        study = self.make_study()
        assert study.series("io_cost_ms") == [("a", 10.0), ("b", 8.0)]

    def test_format_contains_settings(self):
        text = self.make_study().format()
        assert "demo" in text and "a" in text and "b" in text

    def test_empty_records_rejected(self):
        with pytest.raises(AdvisorError):
            TuningStudy(name="x", parameter="p", records=())

    def test_best_setting_requires_numeric_metric(self):
        study = self.make_study()
        with pytest.raises(AdvisorError):
            study.best_setting("allocation_scheme")


class TestDiskCountStudy:
    def test_response_improves_with_disks(self, toy_schema, toy_workload, small_system):
        study = disk_count_study(
            toy_schema, toy_workload, small_system, SPEC, disk_counts=(2, 8, 32), config=CONFIG
        )
        series = dict(study.series("response_time_ms"))
        assert series["2"] > series["32"]
        io_series = dict(study.series("io_cost_ms"))
        assert io_series["2"] == pytest.approx(io_series["32"])
        assert study.best_setting("response_time_ms") == "32"

    def test_empty_counts_rejected(self, toy_schema, toy_workload, small_system):
        with pytest.raises(AdvisorError):
            disk_count_study(
                toy_schema, toy_workload, small_system, SPEC, disk_counts=(), config=CONFIG
            )


class TestArchitectureStudy:
    def test_both_architectures_present(self, toy_schema, toy_workload, small_system):
        study = architecture_study(toy_schema, toy_workload, small_system, SPEC, config=CONFIG)
        assert set(study.settings) == {"shared_everything", "shared_disk"}
        # SE pays less coordination overhead, so it cannot be slower.
        se = study.metrics_for("shared_everything")["response_time_ms"]
        sd = study.metrics_for("shared_disk")["response_time_ms"]
        assert se <= sd


class TestPrefetchStudy:
    def test_auto_at_least_as_good_as_single_page(self, toy_schema, toy_workload, small_system):
        study = prefetch_study(
            toy_schema,
            toy_workload,
            small_system,
            SPEC,
            fact_granules=(1, 16, "auto"),
            config=CONFIG,
        )
        responses = dict(study.series("response_time_ms"))
        assert responses["auto"] <= responses["1 pages"]
        auto_record = study.metrics_for("auto")
        assert auto_record["resolved_fact_granule"] >= 1

    def test_empty_granules_rejected(self, toy_schema, toy_workload, small_system):
        with pytest.raises(AdvisorError):
            prefetch_study(
                toy_schema, toy_workload, small_system, SPEC, fact_granules=(), config=CONFIG
            )


class TestBitmapExclusionStudy:
    def test_exclusion_saves_space_costs_io(self, toy_schema, toy_workload, small_system):
        study = bitmap_exclusion_study(
            toy_schema,
            toy_workload,
            small_system,
            SPEC,
            exclusions=((), (("product", "item"),)),
            config=CONFIG,
        )
        full = study.metrics_for("all suggested indexes")
        slim = study.metrics_for("without product.item")
        assert slim["bitmap_pages"] < full["bitmap_pages"]
        assert slim["io_cost_ms"] >= full["io_cost_ms"] - 1e-9

    def test_empty_exclusions_rejected(self, toy_schema, toy_workload, small_system):
        with pytest.raises(AdvisorError):
            bitmap_exclusion_study(
                toy_schema, toy_workload, small_system, SPEC, exclusions=(), config=CONFIG
            )


class TestSkewStudy:
    @staticmethod
    def schema_factory(theta: float) -> StarSchema:
        time = Dimension("time", [Level("year", 2), Level("quarter", 8), Level("month", 24)])
        product = Dimension(
            "product", [Level("group", 10), Level("item", 200)], skew=SkewSpec(theta=theta)
        )
        store = Dimension("store", [Level("region", 4), Level("store", 40)])
        fact = FactTable("sales", 1_000_000, 64, ("time", "product", "store"))
        return StarSchema("toy", (time, product, store), (fact,))

    def test_allocation_switches_under_skew(self, toy_workload, small_system):
        spec = FragmentationSpec.of(("product", "item"), ("time", "quarter"))
        study = skew_study(
            self.schema_factory,
            toy_workload,
            small_system,
            spec,
            thetas=(0.0, 1.0),
            config=CONFIG,
        )
        assert study.metrics_for("0.00")["allocation_scheme"] == "round_robin"
        assert study.metrics_for("1.00")["allocation_scheme"] == "greedy_size"

    def test_empty_thetas_rejected(self, toy_workload, small_system):
        with pytest.raises(AdvisorError):
            skew_study(
                self.schema_factory, toy_workload, small_system, SPEC, thetas=(), config=CONFIG
            )


class TestWorkloadWeightStudy:
    def test_baseline_plus_variants(self, toy_schema, toy_workload, small_system):
        study = workload_weight_study(
            toy_schema,
            toy_workload,
            small_system,
            SPEC,
            reweightings={"reporting-heavy": {"yearly-report": 100.0}},
            config=CONFIG,
        )
        assert study.settings[0] == "baseline"
        baseline = study.metrics_for("baseline")["io_cost_ms"]
        shifted = study.metrics_for("reporting-heavy")["io_cost_ms"]
        # The yearly report scans widely, so boosting it increases the weighted I/O cost.
        assert shifted > baseline


def _two_fact_schema() -> StarSchema:
    """The toy dimensions over two fact tables; ``returns`` is not the primary."""
    time = Dimension("time", [Level("year", 2), Level("quarter", 8), Level("month", 24)])
    product = Dimension("product", [Level("group", 10), Level("item", 200)])
    store = Dimension("store", [Level("region", 4), Level("store", 40)])
    sales = FactTable("sales", 1_000_000, 64, ("time", "product", "store"))
    returns = FactTable("returns", 100_000, 48, ("time", "product"))
    return StarSchema("two-facts", (time, product, store), (sales, returns))


def _two_fact_workload() -> QueryMix:
    restriction = DimensionRestriction
    return QueryMix(
        [
            QueryClass(
                "monthly-by-group",
                [restriction("time", "month"), restriction("product", "group")],
                weight=4,
            ),
            QueryClass(
                "item-tracking",
                [restriction("product", "item"), restriction("time", "month")],
                weight=2,
            ),
            QueryClass("yearly-report", [restriction("time", "year")], weight=1),
        ]
    )


def _fresh_record(schema, workload, system, spec, excluded=(), fact_table=None, prefetch=False):
    """The record of ``spec`` on a fresh scalar, uncached session over these inputs."""
    session = AdvisorSession(
        schema, workload, system, CONFIG, fact_table=fact_table,
        options=EngineOptions(vectorize=False, cache=False),
    )
    scheme = session.design_bitmaps().without(*excluded) if excluded else None
    candidate = session.evaluate_spec(spec, scheme)
    record = _candidate_metrics(candidate)
    if prefetch:
        record["resolved_fact_granule"] = candidate.prefetch.fact_pages
    return record


#: One request per :data:`STUDIES` entry, with each setting's edited inputs
#: as ``(label, with_delta edit, excluded bitmap indexes)``.
_TUNE_CASES = {
    "disks": ([2, 32], [("2", {"disks": 2}, ()), ("32", {"disks": 32}, ())]),
    "architecture": (
        None,
        [
            ("shared_everything", {"architecture": "shared_everything"}, ()),
            ("shared_disk", {"architecture": "shared_disk"}, ()),
        ],
    ),
    "prefetch": (
        [1, "auto"],
        [("1 pages", {"prefetch_fact": 1}, ()), ("auto", {"prefetch_fact": "auto"}, ())],
    ),
    "bitmaps": (
        [[], [["product", "item"]]],
        [
            ("all suggested indexes", {}, ()),
            ("without product.item", {}, (("product", "item"),)),
        ],
    ),
    "weights": (
        {"report-heavy": {"yearly-report": 10.0}},
        [
            ("baseline", {}, ()),
            ("report-heavy", {"mix_weights": {"yearly-report": 10.0}}, ()),
        ],
    ),
}


class TestStudiesMatchAFreshSession:
    """Every record is what a fresh session on that setting's edited inputs
    evaluates, on the scalar path and without a cache."""

    def test_public_studies(self, toy_schema, toy_workload, small_system):
        def fresh(schema=toy_schema, workload=toy_workload, system=small_system, **kwargs):
            return _fresh_record(schema, workload, system, SPEC, **kwargs)

        reweighted = toy_workload.reweighted({"yearly-report": 100.0})
        cases = [
            (
                disk_count_study(
                    toy_schema, toy_workload, small_system, SPEC, (2, 32), config=CONFIG
                ),
                [("2", fresh(system=small_system.with_disks(2))),
                 ("32", fresh(system=small_system.with_disks(32)))],
            ),
            (
                architecture_study(toy_schema, toy_workload, small_system, SPEC, config=CONFIG),
                [(name, fresh(system=small_system.with_architecture(name)))
                 for name in ("shared_everything", "shared_disk")],
            ),
            (
                prefetch_study(
                    toy_schema, toy_workload, small_system, SPEC, (1, "auto"), config=CONFIG
                ),
                [("1 pages", fresh(system=small_system.with_prefetch(fact=1), prefetch=True)),
                 ("auto", fresh(prefetch=True))],
            ),
            (
                bitmap_exclusion_study(
                    toy_schema, toy_workload, small_system, SPEC,
                    ((), (("product", "item"),)), config=CONFIG,
                ),
                [("all suggested indexes", fresh()),
                 ("without product.item", fresh(excluded=(("product", "item"),)))],
            ),
            (
                skew_study(
                    TestSkewStudy.schema_factory, toy_workload, small_system, SPEC,
                    (0.0, 1.0), config=CONFIG,
                ),
                [(f"{theta:.2f}", fresh(schema=TestSkewStudy.schema_factory(theta)))
                 for theta in (0.0, 1.0)],
            ),
            (
                workload_weight_study(
                    toy_schema, toy_workload, small_system, SPEC,
                    {"reporting-heavy": {"yearly-report": 100.0}}, config=CONFIG,
                ),
                [("baseline", fresh()), ("reporting-heavy", fresh(workload=reweighted))],
            ),
        ]
        for study, expected in cases:
            assert study.records == tuple(expected), study.name

    @pytest.mark.parametrize("fact_table", ["sales", "returns"])
    @pytest.mark.parametrize("study", sorted(STUDIES))
    def test_tune_studies(self, study, fact_table):
        schema, workload = _two_fact_schema(), _two_fact_workload()
        system = SystemParameters(num_disks=8)
        session = AdvisorSession(schema, workload, system, CONFIG, fact_table=fact_table)
        spec = FragmentationSpec.of(("time", "month"))
        settings, expected = _TUNE_CASES[study]
        result = session.submit(TuneRequest(study, spec=spec, settings=settings))
        records = []
        for label, edit, excluded in expected:
            edited = session.with_delta(**edit)
            records.append(
                (label, _fresh_record(
                    edited.schema, edited.workload, edited.system, spec, excluded,
                    fact_table=fact_table, prefetch=study == "prefetch",
                ))
            )
        assert result.study.records == tuple(records)


class TestTuneKeepsTheSessionFactTable:
    @pytest.mark.parametrize("study", sorted(STUDIES))
    def test_records_are_the_edited_sessions_evaluations(self, study):
        # A session on the non-primary fact table studies that table: each
        # record is the session's own with_delta edit, evaluated.
        session = AdvisorSession(
            _two_fact_schema(), _two_fact_workload(), SystemParameters(num_disks=8),
            CONFIG, fact_table="returns",
        )
        spec = FragmentationSpec.of(("time", "month"))
        settings, expected = _TUNE_CASES[study]
        records = []
        for label, edit, excluded in expected:
            edited = session.with_delta(**edit)
            scheme = edited.design_bitmaps().without(*excluded) if excluded else None
            records.append((label, STUDIES[study].record(edited.evaluate_spec(spec, scheme))))
        assert session.tune(study, spec=spec, settings=settings).study.records == tuple(records)


class TestStudySettings:
    def test_architecture_study_takes_no_settings(self, toy_advisor):
        with pytest.raises(AdvisorError, match="takes no settings"):
            TuneRequest("architecture", settings=[1, 2])
        with pytest.raises(AdvisorError, match="takes no settings"):
            toy_advisor.tune("architecture", spec=SPEC, settings=[1, 2])

    def test_empty_and_missing_settings_are_rejected(self, toy_advisor):
        with pytest.raises(AdvisorError, match="at least one disk count"):
            toy_advisor.tune("disks", spec=SPEC, settings=[])
        for settings in (None, {}):
            with pytest.raises(AdvisorError, match="weight overrides"):
                toy_advisor.tune("weights", spec=SPEC, settings=settings)

    def test_uncached_options_build_no_cache(self, toy_schema, toy_workload, small_system,
                                             monkeypatch):
        from repro.engine import EvaluationCache

        def refuse(*args, **kwargs):
            raise AssertionError("an uncached study built an EvaluationCache")

        monkeypatch.setattr(EvaluationCache, "__init__", refuse)
        study = disk_count_study(
            toy_schema, toy_workload, small_system, SPEC, (2, 8), config=CONFIG,
            options=EngineOptions(cache=False),
        )
        assert study.settings == ["2", "8"]
