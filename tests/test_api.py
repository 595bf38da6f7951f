"""Tests for the API façade: EngineOptions, the cache handle, requests/results.

The contract under test (repro.api):

* :class:`EngineOptions` is the one validated carrier of the execution knobs,
  threaded through every entry point; ``vectorize`` is a plain bool (batched
  or the scalar oracle);
* the removed per-kwarg forms (``jobs=``, ``vectorize=``, ``cache_dir=``) are
  rejected, and ``cache=`` accepts only ``None`` or a shared
  :class:`~repro.engine.EvaluationCache`;
* typed requests validate on construction and round-trip through
  ``to_dict`` / ``request_from_dict``;
* every result type serves a stable ``to_dict()``.
"""

from __future__ import annotations

import json
import warnings

import pytest

from repro import (
    AdvisorSession,
    CompareRequest,
    EngineOptions,
    EvaluateSpecRequest,
    FragmentationSpec,
    RecommendRequest,
    SimulateRequest,
    TuneRequest,
)
from repro.api import request_from_dict
from repro.engine import EvaluationEngine
from repro.errors import AdvisorError
from repro.tuning import disk_count_study


class TestEngineOptions:
    def test_defaults(self):
        options = EngineOptions()
        assert options.vectorize is True
        assert options.cache is True
        assert options.cache_dir is None
        assert options.persist is True
        assert options.cache_max_mb is None

    def test_is_a_hashable_value_object(self):
        assert EngineOptions(cache_dir="/tmp/a") == EngineOptions(cache_dir="/tmp/a")
        assert EngineOptions(cache_dir="/tmp/a") != EngineOptions(cache_dir="/tmp/b")
        assert hash(EngineOptions()) == hash(EngineOptions())

    def test_rejects_cache_dir_without_cache(self):
        with pytest.raises(AdvisorError):
            EngineOptions(cache=False, cache_dir="/tmp/x")

    @pytest.mark.parametrize("budget", [float("inf"), 1e308])
    def test_rejects_a_budget_without_a_finite_byte_count(self, budget):
        # 1e308 MB overflows to inf bytes; the engine would crash on it.
        with pytest.raises(AdvisorError, match="finite byte count"):
            EngineOptions(cache_dir="/tmp/x", cache_max_mb=budget)

    def test_rejects_non_bool_flags(self):
        for field in ("vectorize", "cache", "persist"):
            with pytest.raises(AdvisorError):
                EngineOptions(**{field: "yes"})

    def test_vectorize_is_a_plain_bool(self):
        assert EngineOptions().vectorize is True
        assert EngineOptions(vectorize=False).vectorize is False
        # Mode strings (and anything else that is not a bool) are rejected,
        # also through the config-file / HTTP parser.
        for bad in ("classes", "candidates", "none", "rows", 1, None):
            with pytest.raises(AdvisorError, match="vectorize"):
                EngineOptions(vectorize=bad)
            with pytest.raises(AdvisorError, match="vectorize"):
                EngineOptions.from_dict({"vectorize": bad})

    def test_rejects_empty_cache_dir(self):
        with pytest.raises(AdvisorError):
            EngineOptions(cache_dir="")

    def test_replace_revalidates(self):
        options = EngineOptions()
        assert options.replace(cache_dir="/tmp/c").cache_dir == "/tmp/c"
        with pytest.raises(AdvisorError):
            options.replace(cache_dir="")

    def test_dict_round_trip(self):
        options = EngineOptions(
            vectorize=False, cache_dir="/tmp/c", persist=False, cache_max_mb=64
        )
        clone = EngineOptions.from_dict(options.to_dict())
        assert clone == options
        assert json.dumps(options.to_dict())  # JSON-ready

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(AdvisorError) as excinfo:
            EngineOptions.from_dict({"job": 2})
        assert "job" in str(excinfo.value)

    def test_describe_mentions_the_interesting_knobs(self):
        text = EngineOptions(
            cache_dir="/tmp/c", persist=False, cache_max_mb=64
        ).describe()
        assert "budget=64MB" in text and "/tmp/c" in text and "read-only" in text
        assert "uncached" in EngineOptions(cache=False).describe()
        assert "scalar" in EngineOptions(vectorize=False).describe()
        assert "vectorized" in EngineOptions().describe()


class TestDeprecationShims:
    """Engine options travel only as ``options=``; ``cache=`` is a cache handle."""

    def test_options_plus_deprecated_kwarg_is_an_error(
        self, toy_schema, toy_workload, small_system
    ):
        # jobs=/vectorize=/cache_dir= are not parameters of any owner: with
        # or without options=, they fail at the call site.
        spec = FragmentationSpec.of(("time", "month"))
        owners = [
            lambda **kw: AdvisorSession(toy_schema, toy_workload, small_system, **kw),
            lambda **kw: EvaluationEngine(
                toy_schema, toy_workload, small_system, **kw
            ),
            lambda **kw: disk_count_study(
                toy_schema, toy_workload, small_system, spec, (8,), **kw
            ),
        ]
        for owner in owners:
            for kwarg in ({"jobs": 2}, {"vectorize": False}, {"cache_dir": "x"}):
                with pytest.raises(TypeError):
                    owner(**kwarg)
                with pytest.raises(TypeError):
                    owner(options=EngineOptions(), **kwarg)

    def test_invalid_legacy_value_raises_without_warning(
        self, toy_schema, toy_workload, small_system
    ):
        # A legacy spelling fails loudly at the call site — never a warning,
        # whatever value it carries — while the same value on EngineOptions
        # gets the usual validation error.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for kwarg in ({"persist": "no"}, {"vectorize": "classes"}, {"cache_dir": ""}):
                with pytest.raises(TypeError):
                    AdvisorSession(toy_schema, toy_workload, small_system, **kwarg)
                with pytest.raises(AdvisorError):
                    EngineOptions(**kwarg)

    def test_cache_argument_must_be_a_cache(self, toy_advisor):
        # cache= is only the shared-cache handle: a stray True/False must
        # fail here, not be stored as the cache and crash a later call.
        schema, workload, system = (
            toy_advisor.schema,
            toy_advisor.workload,
            toy_advisor.system,
        )
        spec = FragmentationSpec.of(("time", "month"))
        owners = [
            lambda cache: AdvisorSession(
                schema, workload, system, cache=cache
            ).recommend(),
            lambda cache: disk_count_study(
                schema, workload, system, spec, (8,), cache=cache
            ),
        ]
        for owner in owners:
            for bad in (True, False, "cache", {}):
                with pytest.raises(
                    AdvisorError, match=r"options=EngineOptions\(cache=False\)"
                ):
                    owner(bad)
            # None and a real cache stay the supported spellings.
            owner(None)
            owner(toy_advisor.cache)

    def test_internal_callers_are_migrated(self, toy_advisor):
        # The advisor pipeline, the studies and the comparison emit no
        # deprecation warning of any kind.
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            recommendation = toy_advisor.recommend().recommendation
            disk_count_study(
                toy_advisor.schema,
                toy_advisor.workload,
                toy_advisor.system,
                recommendation.best.spec,
                disk_counts=(8,),
                config=toy_advisor.config,
                cache=toy_advisor.cache,
                options=toy_advisor.options,
            )
            toy_advisor.compare([recommendation.best.spec])


class TestRequests:
    SPEC = FragmentationSpec.of(("time", "month"))

    def test_tune_request_rejects_unknown_study(self):
        with pytest.raises(AdvisorError):
            TuneRequest(study="turbo")

    def test_compare_request_needs_specs(self):
        with pytest.raises(AdvisorError):
            CompareRequest(specs=())

    def test_simulate_request_validates_queries(self):
        with pytest.raises(AdvisorError):
            SimulateRequest(queries_per_class=0)

    def test_requests_round_trip_through_dicts(self):
        requests = [
            RecommendRequest(),
            EvaluateSpecRequest(spec=self.SPEC, bitmap_exclude=(("time", "month"),)),
            CompareRequest(specs=(self.SPEC,)),
            TuneRequest(study="disks", settings=[8, 16]),
            SimulateRequest(fragmentation="none", queries_per_class=3, seed=7),
        ]
        for request in requests:
            payload = json.loads(json.dumps(request.to_dict()))
            clone = request_from_dict(payload)
            assert type(clone) is type(request)
            assert clone.to_dict() == request.to_dict()

    def test_request_from_dict_rejects_unknown_kind(self):
        with pytest.raises(AdvisorError):
            request_from_dict({"kind": "destroy"})


class TestResultToDicts:
    """Every result type serves a stable, JSON-ready to_dict()."""

    @pytest.fixture(scope="class")
    def session(self):
        # Built directly (not from the function-scoped toy fixtures) so one
        # session serves the whole class warm.
        from repro import (
            AdvisorConfig,
            Dimension,
            DimensionRestriction,
            FactTable,
            Level,
            QueryClass,
            QueryMix,
            StarSchema,
            SystemParameters,
        )

        schema = StarSchema(
            name="toy-api",
            dimensions=(
                Dimension(name="time", levels=[Level("year", 2), Level("month", 24)]),
                Dimension(name="product", levels=[Level("group", 10), Level("item", 200)]),
            ),
            fact_tables=(
                FactTable(
                    name="sales",
                    row_count=500_000,
                    row_size_bytes=64,
                    dimension_names=("time", "product"),
                ),
            ),
        )
        workload = QueryMix(
            [
                QueryClass(
                    name="monthly",
                    restrictions=[DimensionRestriction("time", "month")],
                    weight=2,
                ),
                QueryClass(
                    name="by-group",
                    restrictions=[DimensionRestriction("product", "group")],
                    weight=1,
                ),
            ]
        )
        return AdvisorSession(
            schema,
            workload,
            SystemParameters(num_disks=8),
            AdvisorConfig(max_fragments=10_000, top_candidates=3),
        )

    def test_recommend_result(self, session):
        result = session.recommend()
        payload = result.to_dict()
        assert payload["fingerprint"] == result.fingerprint
        assert payload["ranked"]
        json.dumps(payload)

    def test_recommendation_and_candidate_to_dict(self, session):
        recommendation = session.recommend().recommendation
        assert recommendation.to_dict()["ranked"]
        candidate_payload = recommendation.best.to_dict()
        assert candidate_payload["fragmentation"] == recommendation.best.label
        json.dumps(candidate_payload)

    def test_evaluate_compare_tune_simulate_results(self, session):
        specs, _ = session.generate_specs()
        evaluated = session.submit(EvaluateSpecRequest(spec=specs[0]))
        assert evaluated.to_dict()["fragmentation"] == specs[0].label
        compared = session.submit(
            CompareRequest(specs=tuple(specs[:2]), baseline_spec=specs[2])
        )
        payload = compared.to_dict()
        assert len(payload["candidates"]) == 2 and "baseline" in payload
        tuned = session.submit(TuneRequest(study="disks", settings=(8, 16)))
        assert [r["setting"] for r in tuned.to_dict()["records"]] == ["8", "16"]
        simulated = session.submit(SimulateRequest(queries_per_class=2))
        sim_payload = simulated.to_dict()
        assert {"fragmentation", "simulation", "predicted"} <= set(sim_payload)
        json.dumps(sim_payload)

    def test_submit_rejects_unknown_request(self, session):
        with pytest.raises(AdvisorError):
            session.submit(object())

    def test_progress_event_to_dict(self):
        from repro import ProgressEvent

        event = ProgressEvent(
            phase="evaluate",
            completed=3,
            total=10,
            chunk=3,
            num_chunks=10,
            completed_units=12,
            total_units=40,
            label="x",
        )
        payload = event.to_dict()
        assert payload["fraction"] == pytest.approx(0.3)
        assert set(payload) == {
            "phase", "completed", "total", "chunk", "num_chunks",
            "completed_units", "total_units", "label", "sweep", "num_sweeps",
            "fraction",
        }
        assert "3/10" in event.describe()
