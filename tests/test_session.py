"""Tests for AdvisorSession: what-if deltas, cache reuse, progress, cancellation.

The contract under test (repro.api.session):

* a delta chain (disks -> skew -> mix weights) produces **bit-identical**
  recommendation fingerprints to fresh per-request advisors built from the
  edited inputs;
* the shared cache makes the chain warm: the cumulative hit rate rises
  across the edits;
* ``on_progress`` events cover 100% of the plan's chunks, and a mid-sweep
  cancellation leaves the cache consistent (a retry completes with the
  identical fingerprint).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import (
    AdvisorConfig,
    AdvisorSession,
    CancellationToken,
    DimensionRestriction,
    EngineOptions,
    EvaluationCache,
    QueryClass,
    QueryMix,
    SystemParameters,
    recommendation_fingerprint,
    synthetic_schema,
)
from repro.errors import AdvisorError, EvaluationCancelled, WorkloadError
from repro.workload.generator import random_query_mix

from test_tuning import _two_fact_schema, _two_fact_workload


@pytest.fixture(scope="module")
def scenario():
    schema = synthetic_schema(
        num_dimensions=4,
        levels_per_dimension=3,
        bottom_cardinality=300,
        fact_rows=2_000_000,
        seed=3,
    )
    workload = random_query_mix(schema, num_classes=6, seed=5)
    system = SystemParameters(num_disks=16)
    config = AdvisorConfig(max_fragments=20_000, top_candidates=8)
    return schema, workload, system, config


class TestWithDelta:
    def test_delta_chain_matches_fresh_advisors_bit_for_bit(self, scenario):
        schema, workload, system, config = scenario
        session = AdvisorSession(schema, workload, system, config)
        skewed_dimension = schema.dimensions[0].name
        heavier_class = next(iter(workload)).name

        chain = [
            ("base", session),
            ("disks", session.with_delta(disks=64)),
        ]
        chain.append(("skew", chain[-1][1].with_delta(skew={skewed_dimension: 0.8})))
        chain.append(("mix", chain[-1][1].with_delta(mix_weights={heavier_class: 9.0})))

        for label, edited in chain:
            result = edited.recommend()
            fresh = AdvisorSession(
                edited.schema, edited.workload, edited.system, edited.config
            ).recommend().recommendation
            assert result.fingerprint == recommendation_fingerprint(fresh), label

    def test_cache_is_shared_and_hit_rate_rises_across_the_chain(self, scenario):
        schema, workload, system, config = scenario
        session = AdvisorSession(schema, workload, system, config)
        session.recommend()
        heavier_class = next(iter(workload)).name

        edits = [
            dict(disks=64),
            dict(architecture="shared_everything"),
            dict(mix_weights={heavier_class: 9.0}),
        ]
        rates = []
        current = session
        for edit in edits:
            current = current.with_delta(**edit)
            assert current.cache is session.cache  # one shared cache object
            current.recommend()
            rates.append(session.stats.hit_rate)
        # Every edit reuses the structure entries of the earlier sweeps, so
        # the cumulative hit rate climbs monotonically: the cold sweep is all
        # misses (two probes per candidate), every edit adds one structure
        # hit per candidate — k edits drive the rate towards k/(2+2k).
        assert rates == sorted(rates)
        assert rates[0] >= 0.2
        assert rates[-1] > 0.3

    def test_reverting_an_edit_answers_from_candidate_entries(
        self, scenario, swept_recommendation
    ):
        schema, workload, system, config = scenario
        session = AdvisorSession(schema, workload, system, config)
        baseline = session.recommend()
        edited = session.with_delta(disks=64)
        edited.recommend()
        reverted = edited.with_delta(system=system)
        session.cache.reset_stats()
        # The revert re-creates the original inputs: the answer memo hands
        # back the baseline without a probe...
        assert reverted.recommend() is baseline
        assert session.stats.lookups == 0
        # ...and a sweep of it answers every candidate from a candidate entry.
        result = swept_recommendation(reverted)
        assert recommendation_fingerprint(result) == baseline.fingerprint
        assert session.stats.candidate_hits == len(result.evaluated)
        assert session.stats.misses == 0

    def test_skew_delta_rejects_unknown_dimension(self, scenario):
        schema, workload, system, config = scenario
        session = AdvisorSession(schema, workload, system, config)
        from repro.errors import SchemaError

        with pytest.raises(SchemaError):
            session.with_delta(skew={"ghost": 0.5})

    def test_prefetch_and_options_deltas(self, scenario):
        schema, workload, system, config = scenario
        session = AdvisorSession(schema, workload, system, config)
        edited = session.with_delta(
            prefetch_fact=4, options=EngineOptions(vectorize=False)
        )
        assert edited.system.prefetch_pages_fact == 4
        assert edited.options.vectorize is False
        fresh = AdvisorSession(
            schema, workload, system.with_prefetch(fact=4), config
        ).recommend().recommendation
        assert edited.recommend().fingerprint == recommendation_fingerprint(fresh)


class TestProgress:
    def _collect(self, options, scenario):
        schema, workload, system, config = scenario
        session = AdvisorSession(schema, workload, system, config, options=options)
        events = []
        result = session.recommend(on_progress=events.append)
        return session, events, result

    def test_events_cover_every_plan_chunk(self, scenario):
        session, events, result = self._collect(EngineOptions(), scenario)
        assert events, "a cold sweep must emit progress"
        total = events[-1].total
        num_chunks = events[-1].num_chunks
        assert events[-1].completed == total
        assert total == len(result.recommendation.evaluated)
        # 100% chunk coverage: every chunk index 1..num_chunks is reported
        # exactly once.
        chunk_indices = [event.chunk for event in events]
        assert chunk_indices == list(range(1, num_chunks + 1))
        # Monotone completion, consistent unit accounting.
        completed = [event.completed for event in events]
        assert completed == sorted(completed)
        per_candidate = events[-1].total_units // total
        for event in events:
            assert event.completed_units == event.completed * per_candidate

    def test_warm_sweep_still_reports_completion(self, scenario):
        session, _, first = self._collect(EngineOptions(), scenario)
        events = []
        warm = session.recommend(on_progress=events.append)
        assert warm.fingerprint == first.fingerprint
        assert events[-1].completed == events[-1].total

    def test_fully_warm_engine_sweep_reports_completion(self, scenario):
        schema, workload, system, config = scenario
        session = AdvisorSession(schema, workload, system, config)
        specs, _ = session.generate_specs()
        session.engine.evaluate_specs(specs)  # cold sweep fills the cache
        events = []
        session.engine.evaluate_specs(specs, on_progress=events.append)
        # Regression: a fully-warm sweep used to emit a single event claiming
        # chunk 0 of 0 chunks — "no progress" to chunk-ratio consumers (and a
        # division by zero on the wire).  The driver answers warm candidates
        # before chunking, so a fully warm sweep evaluates nothing and
        # reports exactly one complete chunk.
        [event] = events
        assert event.completed == event.total == len(specs)
        assert event.chunk == 1 and event.num_chunks == 1

    def test_memoized_result_reports_one_complete_chunk(self, scenario):
        session, _, first = self._collect(EngineOptions(), scenario)
        events = []
        memoized = session.recommend(on_progress=events.append)
        assert memoized.fingerprint == first.fingerprint
        [event] = [e for e in events if e.label == "memoized"]
        # Regression: the memoized answer used to claim chunk 0 of 0 chunks,
        # which reads as "no progress" and breaks chunk-ratio consumers.
        assert event.chunk == 1
        assert event.num_chunks == 1
        assert event.completed == event.total == len(
            memoized.recommendation.evaluated
        )
        assert event.completed_units == event.total_units > 0


class TestCancellation:
    def test_serial_cancellation_leaves_the_cache_consistent(self, scenario):
        schema, workload, system, config = scenario
        session = AdvisorSession(schema, workload, system, config)
        token = CancellationToken()
        seen = []

        def cancel_after_three(event):
            seen.append(event)
            if len(seen) == 3:
                token.cancel()

        with pytest.raises(EvaluationCancelled):
            session.recommend(on_progress=cancel_after_three, cancel=token)
        # The sweep stopped at a chunk boundary, partially filling the cache.
        assert 0 < len(session.cache)
        completed_before = seen[-1].completed
        assert completed_before < seen[-1].total

        # Retry: completes warm, and the partial cache never changed a number.
        retry = session.recommend()
        fresh = AdvisorSession(schema, workload, system, config).recommend().recommendation
        assert retry.fingerprint == recommendation_fingerprint(fresh)

    def test_pre_set_token_cancels_before_any_work(self, scenario):
        schema, workload, system, config = scenario
        session = AdvisorSession(schema, workload, system, config)
        token = CancellationToken()
        token.cancel()
        with pytest.raises(EvaluationCancelled):
            session.recommend(cancel=token)
        assert len(session.cache) == 0

    def test_callable_cancel_signal_is_accepted(self, scenario):
        schema, workload, system, config = scenario
        session = AdvisorSession(schema, workload, system, config)
        with pytest.raises(EvaluationCancelled):
            session.recommend(cancel=lambda: True)

    def test_tune_request_cancels_between_settings(self, scenario):
        schema, workload, system, config = scenario
        session = AdvisorSession(schema, workload, system, config)
        spec = session.recommend().best.spec
        token = CancellationToken()
        settings_seen = []

        def cancel_after_two():
            # Polled at each setting boundary: cancel before the third.
            settings_seen.append(len(settings_seen))
            return len(settings_seen) > 2

        with pytest.raises(EvaluationCancelled):
            session.tune(
                "disks", spec=spec, settings=(8, 16, 32, 64), cancel=cancel_after_two
            )
        assert token.cancelled is False  # the callable signal was used
        # The completed settings stay valid: a retry answers them warm.
        session.cache.reset_stats()
        result = session.tune("disks", spec=spec, settings=(8, 16, 32, 64))
        assert result.study.settings == ["8", "16", "32", "64"]
        assert session.stats.candidate_hits >= 2


class TestSubmitContract:
    """submit() honors on_progress/cancel for EVERY request type.

    Regression: EvaluateSpecRequest used to drop both arguments on the floor
    — a pre-set token evaluated anyway and the wire front end saw no progress.
    """

    def _requests(self, session):
        from repro.api.requests import (
            CompareRequest,
            EvaluateSpecRequest,
            RecommendRequest,
            SimulateRequest,
            TuneRequest,
        )

        spec = session.recommend().best.spec
        return [
            RecommendRequest(),
            EvaluateSpecRequest(spec=spec),
            CompareRequest(specs=(spec,)),
            TuneRequest(study="disks", spec=spec, settings=(8, 16)),
            SimulateRequest(queries_per_class=2),
        ]

    def test_pre_set_cancel_raises_for_every_request_type(self, scenario):
        schema, workload, system, config = scenario
        session = AdvisorSession(schema, workload, system, config)
        for request in self._requests(session):
            token = CancellationToken()
            token.cancel()
            with pytest.raises(EvaluationCancelled):
                session.submit(request, cancel=token)

    def test_every_request_type_reports_progress(self, scenario):
        schema, workload, system, config = scenario
        session = AdvisorSession(schema, workload, system, config)
        for request in self._requests(session):
            events = []
            session.submit(request, on_progress=events.append)
            assert events, type(request).__name__
            last = events[-1]
            assert last.completed == last.total > 0
            assert 1 <= last.chunk <= last.num_chunks

    def test_evaluate_progress_event_names_the_spec(self, scenario):
        from repro.api.requests import EvaluateSpecRequest

        schema, workload, system, config = scenario
        session = AdvisorSession(schema, workload, system, config)
        spec = session.recommend().best.spec
        events = []
        session.submit(EvaluateSpecRequest(spec=spec), on_progress=events.append)
        [event] = events
        assert event.label == spec.label
        assert event.completed == event.total == 1
        assert event.total_units == len(workload)

    def test_composite_tune_reports_both_sweeps(self, scenario):
        from repro.api.requests import TuneRequest

        schema, workload, system, config = scenario
        session = AdvisorSession(schema, workload, system, config)
        events = []
        session.submit(
            TuneRequest(study="disks", settings=(8, 16)), on_progress=events.append
        )
        sweeps = [(event.sweep, event.num_sweeps) for event in events]
        # The implicit recommend reports as sweep 1/2, the study as 2/2 —
        # and both phases end complete.
        assert set(sweeps) == {(1, 2), (2, 2)}
        assert sweeps == sorted(sweeps)  # recommend frames precede the study
        recommend_last = [e for e in events if e.sweep == 1][-1]
        study_last = events[-1]
        assert recommend_last.completed == recommend_last.total
        assert study_last.sweep == 2
        assert study_last.completed == study_last.total == 2
        assert "sweep 2/2" in study_last.describe()

    def test_composite_simulate_reports_both_sweeps(self, scenario):
        from repro.api.requests import SimulateRequest

        schema, workload, system, config = scenario
        session = AdvisorSession(schema, workload, system, config)
        events = []
        session.submit(
            SimulateRequest(queries_per_class=2), on_progress=events.append
        )
        assert events[-1].phase == "simulate"
        assert events[-1].sweep == 2 and events[-1].num_sweeps == 2
        assert events[-1].total_units == len(workload) * 2
        assert all(e.sweep == 1 for e in events[:-1])

    def test_explicit_spec_tune_is_a_single_sweep(self, scenario):
        from repro.api.requests import TuneRequest

        schema, workload, system, config = scenario
        session = AdvisorSession(schema, workload, system, config)
        spec = session.recommend().best.spec
        events = []
        session.submit(
            TuneRequest(study="disks", spec=spec, settings=(8, 16)),
            on_progress=events.append,
        )
        assert events
        assert all(e.sweep == 1 and e.num_sweeps == 1 for e in events)


class TestSessionLifecycle:
    def test_context_manager_persists_on_close(self, scenario, tmp_path):
        from repro.engine.store import CANDIDATES_FILENAME

        schema, workload, system, config = scenario
        store = tmp_path / "cache"
        with AdvisorSession(
            schema,
            workload,
            system,
            config,
            options=EngineOptions(cache_dir=str(store)),
        ) as session:
            session.recommend()
        assert (store / CANDIDATES_FILENAME).exists()
        # A second session over the directory answers the sweep from disk.
        warm = AdvisorSession(
            schema,
            workload,
            system,
            config,
            options=EngineOptions(cache_dir=str(store)),
        )
        warm.recommend()
        assert warm.stats.disk_hit_rate >= 0.9

    def test_read_only_store_never_writes(self, scenario, tmp_path):
        schema, workload, system, config = scenario
        store = tmp_path / "cache"
        # persist=False: warm-start allowed, spill forbidden.
        session = AdvisorSession(
            schema,
            workload,
            system,
            config,
            options=EngineOptions(cache_dir=str(store), persist=False),
        )
        session.recommend()
        session.close()
        assert not store.exists()

    def test_uncached_session_has_no_stats(self, scenario):
        schema, workload, system, config = scenario
        session = AdvisorSession(
            schema, workload, system, config, options=EngineOptions(cache=False)
        )
        assert session.cache is None and session.stats is None
        assert session.recommend().recommendation.ranked

    def test_describe_names_the_inputs(self, scenario):
        schema, workload, system, config = scenario
        session = AdvisorSession(schema, workload, system, config)
        text = session.describe()
        assert schema.name in text and "vectorized" in text

    def test_session_rejects_plain_dict_options(self, scenario):
        schema, workload, system, config = scenario
        with pytest.raises(AdvisorError):
            AdvisorSession(schema, workload, system, config, options={"vectorize": False})


class TestRecommendMemo:
    """A repeated identical recommend() answers O(1) from the cache's memo."""

    def test_second_recommend_does_zero_sweep_work(self, scenario, monkeypatch):
        schema, workload, system, config = scenario
        session = AdvisorSession(schema, workload, system, config)
        first = session.recommend()
        lookups = session.stats.lookups

        def explode(*args, **kwargs):  # pragma: no cover - must never run
            raise AssertionError("memoized recommend() must not sweep")

        # The memo must short-circuit before enumeration AND evaluation.
        monkeypatch.setattr(session, "generate_specs", explode)
        monkeypatch.setattr(session.engine, "evaluate_specs", explode)
        second = session.recommend()
        assert second is first
        # Zero additional cache probes: the answer is O(1).
        assert session.stats.lookups == lookups

    def test_memoized_recommend_still_reports_completion(self, scenario):
        schema, workload, system, config = scenario
        session = AdvisorSession(schema, workload, system, config)
        first = session.recommend()
        events = []
        session.recommend(on_progress=events.append)
        assert len(events) == 1
        assert events[0].completed == events[0].total == len(
            first.recommendation.evaluated
        )

    def test_tune_after_recommend_reuses_the_memo(self, scenario, monkeypatch):
        schema, workload, system, config = scenario
        session = AdvisorSession(schema, workload, system, config)
        best = session.recommend().best.spec
        monkeypatch.setattr(
            session.engine,
            "evaluate_specs",
            lambda *a, **k: (_ for _ in ()).throw(AssertionError("swept")),
        )
        # The implicit recommend inside tune(spec=None) answers from the memo
        # (per-setting evaluations go through evaluate_spec, not the sweep).
        result = session.tune("disks", settings=(8, 16))
        assert result.study.settings == ["8", "16"]
        assert best.label  # the memoized best spec drove the study

    def test_pre_set_cancel_beats_the_memo(self, scenario):
        schema, workload, system, config = scenario
        session = AdvisorSession(schema, workload, system, config)
        session.recommend()  # memo populated
        token = CancellationToken()
        token.cancel()
        # The cancellation contract holds even for memoized answers.
        with pytest.raises(EvaluationCancelled):
            session.recommend(cancel=token)

    def test_uncached_sessions_do_not_memoize(self, scenario):
        schema, workload, system, config = scenario
        session = AdvisorSession(
            schema, workload, system, config, options=EngineOptions(cache=False)
        )
        first = session.recommend()
        second = session.recommend()
        assert first is not second
        assert first.fingerprint == second.fingerprint

    def test_derived_sessions_do_not_inherit_the_memo(self, scenario):
        schema, workload, system, config = scenario
        session = AdvisorSession(schema, workload, system, config)
        base = session.recommend()
        edited = session.with_delta(disks=64)
        assert edited.recommend().fingerprint != "" 
        assert edited.recommend() is not base


#: One-input edits of the two-fact warehouse: each must miss the base answer.
_ONE_INPUT_EDITS = {
    "disks": dict(system=lambda system: system.with_disks(16)),
    "architecture": dict(
        system=lambda system: system.with_architecture("shared_everything")
    ),
    "prefetch_fact": dict(system=lambda system: system.with_prefetch(fact=4)),
    "skew": dict(schema=lambda schema: schema.with_skew({"product": 0.8})),
    "mix_weight": dict(
        workload=lambda workload: workload.reweighted({"yearly-report": 9.0})
    ),
    "config": dict(config=lambda config: dataclasses.replace(config, top_fraction=0.5)),
    "fact_table": dict(fact_table=lambda fact_table: "returns"),
}


class TestSharedAnswerMemo:
    """Sessions sharing a cache share its answers, and only for equal inputs."""

    def test_a_fresh_session_sharing_the_cache_answers_from_the_memo(self, scenario):
        schema, workload, system, config = scenario
        session = AdvisorSession(schema, workload, system, config)
        answer = session.recommend()
        lookups = session.stats.lookups
        fresh = AdvisorSession(schema, workload, system, config, cache=session.cache)
        events = []
        assert fresh.recommend(on_progress=events.append) is answer
        assert session.stats.lookups == lookups
        assert [event.label for event in events] == ["memoized"]
        # The memoized-answer contracts hold across sessions.
        token = CancellationToken()
        token.cancel()
        with pytest.raises(EvaluationCancelled):
            fresh.recommend(cancel=token)
        uncached = AdvisorSession(
            schema, workload, system, config, cache=session.cache,
            options=EngineOptions(cache=False),
        )
        recomputed = uncached.recommend()
        assert recomputed is not answer
        assert recomputed.fingerprint == answer.fingerprint

    @pytest.mark.parametrize("edit", sorted(_ONE_INPUT_EDITS))
    def test_a_session_differing_in_one_input_misses_the_memo(self, edit):
        inputs = dict(
            schema=_two_fact_schema(),
            workload=_two_fact_workload(),
            system=SystemParameters(num_disks=8),
            config=AdvisorConfig(max_fragments=50_000),
            fact_table="sales",
        )
        base = AdvisorSession(**inputs)
        answer = base.recommend()
        for name, change in _ONE_INPUT_EDITS[edit].items():
            inputs[name] = change(inputs[name])
        edited = AdvisorSession(**inputs, cache=base.cache).recommend()
        assert edited is not answer
        cold = AdvisorSession(**inputs, options=EngineOptions(vectorize=False))
        assert edited.fingerprint == cold.recommend().fingerprint
        assert edited.fingerprint != answer.fingerprint

    def test_a_store_backed_answer_is_not_saved(self, scenario, tmp_path):
        schema, workload, system, config = scenario
        options = EngineOptions(cache_dir=str(tmp_path))
        with AdvisorSession(schema, workload, system, config, options=options) as first:
            answer = first.recommend()
        warm = AdvisorSession(schema, workload, system, config, options=options)
        assert warm.cache.get_answer(warm._input_fingerprint()) is None
        result = warm.recommend()
        count = len(result.recommendation.evaluated)
        assert result is not answer
        assert result.fingerprint == answer.fingerprint
        # The answer came from a warm sweep over the stored candidates.
        assert warm.stats.candidate_disk_hits == count
        assert (warm.stats.candidate_hits, warm.stats.candidate_misses) == (count, 0)

    def test_answers_pin_at_most_max_entries_candidates(self, scenario):
        schema, workload, system, config = scenario
        size = len(
            AdvisorSession(schema, workload, system, config)
            .recommend().recommendation.evaluated
        )
        cache = EvaluationCache(max_entries=2 * size)
        session = AdvisorSession(schema, workload, system, config, cache=cache)
        states = [session.with_delta(disks=disks) for disks in (8, 12, 16, 24, 32)]
        for visited, state in enumerate(states, 1):
            answer = state.recommend()
            memoized = [
                cache.get_answer(other._input_fingerprint())
                for other in states[:visited]
            ]
            pinned = sum(
                len(kept.recommendation.evaluated) for kept in memoized if kept
            )
            assert pinned <= cache.max_entries
            assert memoized[-1] is answer
        assert None in memoized  # more states than fit
        lookups = cache.stats.lookups
        newest = AdvisorSession(schema, workload, states[-1].system, config, cache=cache)
        assert newest.recommend() is answer
        assert cache.stats.lookups == lookups


class TestValidateOnce:
    """The process validates each (schema, workload) pair once."""

    def test_edits_of_the_system_validate_nothing(self, scenario, compile_calls):
        schema, workload, system, config = scenario
        classes = len(workload)
        session = AdvisorSession(schema, workload, system, config)
        session.recommend()
        assert compile_calls["validate"] == classes
        session.tune("disks", settings=(8, 32, 64))
        session.with_delta(disks=32)
        assert compile_calls["validate"] == classes
        # A skew edit changes the schema, so its pair validates again.
        session.with_delta(skew={schema.dimensions[0].name: 0.8})
        assert compile_calls["validate"] == 2 * classes
        # Without a cache every construction validates.
        for _ in range(2):
            AdvisorSession(
                schema, workload, system, config, options=EngineOptions(cache=False)
            )
        assert compile_calls["validate"] == 4 * classes

    def test_an_invalid_workload_raises_on_every_construction(self, scenario):
        schema, _, system, config = scenario
        ghost = QueryMix(
            [QueryClass("ghost", [DimensionRestriction("ghost", "level")])]
        )
        cache = EvaluationCache()
        for _ in range(2):
            with pytest.raises(WorkloadError, match="ghost"):
                AdvisorSession(schema, ghost, system, config, cache=cache)


class TestCompiledInputSharing:
    """with_delta reuse of compiled matrices and exclusion reports."""

    def test_system_only_delta_reuses_the_compiled_class_matrix(self, scenario):
        schema, workload, system, config = scenario
        session = AdvisorSession(schema, workload, system, config)
        matrix = session.engine.class_matrix()
        edited = session.with_delta(disks=64)
        # Same (schema, workload, scheme): the process memo hands the derived
        # session the identical compiled object, no re-compilation.
        assert edited.engine.class_matrix() is matrix
        # A workload edit changes the compilation inputs: fresh matrix.
        heavier = next(iter(workload)).name
        reweighted = session.with_delta(mix_weights={heavier: 7.0})
        assert reweighted.engine.class_matrix() is not matrix

    def test_system_only_delta_rebuilds_no_layout(self, scenario, monkeypatch):
        schema, workload, system, config = scenario
        session = AdvisorSession(schema, workload, system, config)
        session.recommend()
        edited = session.with_delta(disks=64)

        import repro.engine.executor as executor_module

        built = []
        build_layout = executor_module.build_layout

        def counted(schema, spec, *args, **kwargs):
            built.append(spec.label)
            return build_layout(schema, spec, *args, **kwargs)

        monkeypatch.setattr(executor_module, "build_layout", counted)
        session.cache.reset_stats()
        result = edited.recommend()
        # A real re-sweep (no candidate entry matches the new system) that
        # takes every layout from the memo.
        assert session.cache.stats.candidate_misses > 0
        assert built == []
        monkeypatch.undo()
        fresh = AdvisorSession(
            schema, workload, system.with_disks(64), config
        ).recommend().recommendation
        assert result.fingerprint == recommendation_fingerprint(fresh)

    def test_memoized_layout_still_enforces_max_fragments(self, scenario, monkeypatch):
        from repro.engine import EvaluationEngine
        from repro.errors import FragmentationError

        schema, workload, system, config = scenario
        session = AdvisorSession(schema, workload, system, config)
        largest = max(
            session.recommend().recommendation.evaluated,
            key=lambda candidate: candidate.fragment_count,
        )

        import repro.engine.executor as executor_module

        def explode(*args, **kwargs):  # pragma: no cover - must never run
            raise AssertionError("the layout is memoized; nothing is rebuilt")

        monkeypatch.setattr(executor_module, "build_layout", explode)
        tight = EvaluationEngine(
            schema,
            workload,
            system,
            AdvisorConfig(max_fragments=largest.fragment_count - 1),
            cache=session.cache,
        )
        with pytest.raises(FragmentationError, match="materialization limit"):
            tight.evaluate_spec(largest.spec)
        with pytest.raises(FragmentationError, match="materialization limit"):
            tight.evaluate_specs([largest.spec])

    def test_exclusion_report_is_cached_and_not_rederived(self, scenario, monkeypatch):
        schema, workload, system, config = scenario
        session = AdvisorSession(schema, workload, system, config)
        specs, report = session.generate_specs()

        import repro.api.session as session_module

        def explode(*args, **kwargs):  # pragma: no cover - must never run
            raise AssertionError("cached generate_specs must not re-derive")

        monkeypatch.setattr(session_module, "evaluate_thresholds", explode)
        monkeypatch.setattr(
            session_module, "enumerate_point_fragmentations", explode
        )
        again_specs, again_report = session.generate_specs()
        assert [spec.label for spec in again_specs] == [
            spec.label for spec in specs
        ]
        assert again_report.considered == report.considered
        assert again_report.excluded == report.excluded

    def test_exclusion_report_warm_starts_from_disk(self, scenario, tmp_path, monkeypatch):
        schema, workload, system, config = scenario
        store = tmp_path / "cache"
        cold = AdvisorSession(
            schema, workload, system, config,
            options=EngineOptions(cache_dir=str(store)),
        )
        cold_result = cold.recommend()
        cold.close()

        warm = AdvisorSession(
            schema, workload, system, config,
            options=EngineOptions(cache_dir=str(store)),
        )
        import repro.api.session as session_module

        def explode(*args, **kwargs):  # pragma: no cover - must never run
            raise AssertionError("warm-from-disk run must not re-derive thresholds")

        monkeypatch.setattr(session_module, "evaluate_thresholds", explode)
        monkeypatch.setattr(
            session_module, "enumerate_point_fragmentations", explode
        )
        warm_result = warm.recommend()
        assert warm_result.fingerprint == cold_result.fingerprint
        # The Recommendation diagnostics are reproduced, not re-derived.
        cold_report = cold_result.recommendation.exclusion_report
        warm_report = warm_result.recommendation.exclusion_report
        assert warm_report.considered == cold_report.considered
        assert warm_report.excluded == cold_report.excluded
        assert warm_report.describe() == cold_report.describe()
