"""Tests for the candidate-evaluation engine (repro.engine)."""

from __future__ import annotations

import pickle
import threading
import time

import numpy as np
import pytest

import repro.engine.executor as executor_module
from repro import (
    AdvisorConfig,
    AdvisorSession,
    DimensionRestriction,
    EngineOptions,
    QueryClass,
    QueryMix,
    SystemParameters,
    apb1_query_mix,
    apb1_schema,
)
from repro.engine import (
    EvaluationCache,
    EvaluationEngine,
    layout_signature,
    object_signature,
)
from repro.engine.executor import evaluate_specs_in_context
from repro.workload import ClassMatrix
from repro.errors import EvaluationCancelled, WorkloadError
from repro.fragmentation import build_layout


class TestSignatures:
    def test_equal_content_same_signature(self, toy_schema, toy_workload):
        queries = [query for query, _ in toy_workload.weighted_items()]
        assert object_signature(queries[0]) == object_signature(queries[0])
        # A structurally identical rebuild gets the same signature.
        rebuilt = [query for query, _ in toy_workload.weighted_items()]
        assert object_signature(queries[1]) == object_signature(rebuilt[1])

    def test_different_content_different_signature(self, toy_workload):
        queries = [query for query, _ in toy_workload.weighted_items()]
        assert object_signature(queries[0]) != object_signature(queries[1])

    def test_layout_signature_ignores_cached_arrays(self, toy_schema, toy_advisor):
        specs, _ = toy_advisor.generate_specs()
        layout_a = build_layout(toy_schema, specs[0])
        signature_before = layout_signature(layout_a)
        layout_a.fragment_rows  # materialize the cached arrays
        assert layout_signature(layout_a) == signature_before
        layout_b = build_layout(toy_schema, specs[0])
        assert layout_signature(layout_b) == signature_before
        layout_c = build_layout(toy_schema, specs[1])
        assert layout_signature(layout_c) != signature_before


class TestEvaluationCache:
    def test_structure_reuse_counts_hits(self, toy_advisor):
        """Scalar path: the oracle takes no structure memo; candidates hit."""
        cache = EvaluationCache()
        advisor = AdvisorSession(
            toy_advisor.schema,
            toy_advisor.workload,
            toy_advisor.system,
            toy_advisor.config,
            cache=cache,
            options=EngineOptions(vectorize=False),
        )
        specs, _ = advisor.generate_specs()
        advisor.evaluate_spec(specs[0])
        assert (cache.stats.structure_misses, cache.stats.structure_hits) == (0, 0)
        assert cache.stats.candidate_misses == 1
        advisor.evaluate_spec(specs[0])
        # The repeat is answered entirely by the candidate-level entry.
        assert cache.stats.candidate_hits == 1
        assert (cache.stats.structure_misses, len(cache._structures)) == (0, 0)

    def test_structure_batch_reuse_counts_hits(self, toy_advisor):
        """Vectorized path: one batch entry per layout plays the same role."""
        cache = EvaluationCache()
        advisor = AdvisorSession(
            toy_advisor.schema,
            toy_advisor.workload,
            toy_advisor.system,
            toy_advisor.config,
            cache=cache,
        )
        specs, _ = advisor.generate_specs()
        advisor.evaluate_spec(specs[0])
        # One batch covers all classes: a single miss, no per-class entries.
        assert cache.stats.structure_misses == 1
        assert cache.stats.candidate_misses == 1
        advisor.evaluate_spec(specs[0])
        # The repeat is answered entirely by the candidate-level entry.
        assert cache.stats.candidate_hits == 1
        assert cache.stats.structure_misses == 1

    def test_disabled_cache_evaluates_identically(self, toy_advisor):
        specs, _ = toy_advisor.generate_specs()
        cached = toy_advisor.evaluate_spec(specs[0])
        uncached_advisor = AdvisorSession(
            toy_advisor.schema,
            toy_advisor.workload,
            toy_advisor.system,
            toy_advisor.config,
            options=EngineOptions(cache=False),
        )
        assert uncached_advisor.cache is None
        # cache=False propagates to the engine: nothing is memoized anywhere.
        assert uncached_advisor.engine.cache is None
        uncached = uncached_advisor.evaluate_spec(specs[0])
        assert uncached.io_cost_ms == cached.io_cost_ms
        assert uncached.response_time_ms == cached.response_time_ms

    def test_cache_false_recommend_never_memoizes(self, toy_schema, toy_workload, small_system):
        advisor = AdvisorSession(
            toy_schema,
            toy_workload,
            small_system,
            AdvisorConfig(max_fragments=10_000, top_candidates=5),
            options=EngineOptions(cache=False),
        )
        advisor.recommend()
        assert advisor.cache is None

    def test_reweighted_workload_reuses_structures(self, toy_advisor):
        """Structures are weight-independent: reweighting must not miss."""
        cache = toy_advisor.cache
        specs, _ = toy_advisor.generate_specs()
        toy_advisor.evaluate_spec(specs[0])
        misses_before = cache.stats.structure_misses
        reweighted = toy_advisor.workload.reweighted(
            {next(iter(toy_advisor.workload)).name: 10.0}
        )
        heavy = AdvisorSession(
            toy_advisor.schema,
            reweighted,
            toy_advisor.system,
            toy_advisor.config,
            cache=cache,
        )
        heavy.evaluate_spec(specs[0])
        assert cache.stats.structure_misses == misses_before

    def test_max_entries_bounds_the_store(self, toy_advisor):
        cache = EvaluationCache(max_entries=3)
        advisor = AdvisorSession(
            toy_advisor.schema,
            toy_advisor.workload,
            toy_advisor.system,
            toy_advisor.config,
            cache=cache,
        )
        specs, _ = advisor.generate_specs()
        advisor.evaluate_spec(specs[0])
        advisor.evaluate_spec(specs[1])
        assert len(cache._structures) <= 3
        assert len(cache._candidates) <= 3

    def test_layout_memo_is_bounded_uncounted_and_cleared(self, toy_advisor):
        cache = EvaluationCache(max_entries=2)
        advisor = AdvisorSession(
            toy_advisor.schema,
            toy_advisor.workload,
            toy_advisor.system,
            toy_advisor.config,
            cache=cache,
        )
        specs, _ = advisor.generate_specs()
        first = advisor.evaluate_spec(specs[0])
        key = cache.layout_key(
            advisor.schema,
            advisor.engine.fact_name,
            specs[0],
            advisor.system.page_size_bytes,
        )
        assert cache.layout(key, lambda: None) is first.layout
        entries, lookups = len(cache), cache.stats.lookups
        assert cache.layout(key, lambda: None) is first.layout
        # Memory-only bookkeeping: neither an entry nor a probe.
        assert (len(cache), cache.stats.lookups) == (entries, lookups)
        for spec in specs[1:4]:
            advisor.evaluate_spec(spec)
        assert len(cache._layouts) == 2
        assert key not in cache._layouts  # FIFO: the oldest went first
        cache.clear()
        assert not cache._layouts

    def test_answer_memo_counts_pinned_candidates_and_keeps_the_newest(self):
        cache = EvaluationCache(max_entries=3)
        cache.put_answer("a", "A", 2)
        cache.put_answer("b", "B", 1)
        assert (cache.get_answer("a"), cache.get_answer("b")) == ("A", "B")
        # Over the budget: the oldest answers go first...
        cache.put_answer("c", "C", 2)
        assert cache.get_answer("a") is None
        assert (cache.get_answer("b"), cache.get_answer("c")) == ("B", "C")
        # ...and the newest stays even when it alone pins more than fits.
        cache.put_answer("d", "D", 5)
        assert [cache.get_answer(key) for key in "abcd"] == [None, None, None, "D"]
        # Memory-only bookkeeping: neither an entry nor a probe.
        assert (len(cache), cache.stats.lookups) == (0, 0)
        cache.clear()
        assert cache.get_answer("d") is None

    def test_max_entries_validation(self):
        with pytest.raises(ValueError):
            EvaluationCache(max_entries=0)

    def test_clear_and_reset(self, toy_advisor):
        cache = toy_advisor.cache
        specs, _ = toy_advisor.generate_specs()
        toy_advisor.evaluate_spec(specs[0])
        assert len(cache) > 0
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.lookups > 0
        cache.reset_stats()
        assert cache.stats.lookups == 0

    def test_hit_rate_zero_when_unused(self):
        assert EvaluationCache().stats.hit_rate == 0.0
        assert "hits" in EvaluationCache().stats.describe()


class TestEvaluationEngine:
    def test_serial_matches_advisor_evaluate_spec(self, toy_advisor):
        specs, _ = toy_advisor.generate_specs()
        engine = toy_advisor.engine
        candidates = engine.evaluate_specs(specs[:3])
        for spec, candidate in zip(specs[:3], candidates):
            reference = toy_advisor.evaluate_spec(spec)
            assert candidate.label == reference.label == spec.label
            assert candidate.io_cost_ms == reference.io_cost_ms
            assert candidate.response_time_ms == reference.response_time_ms
            assert candidate.prefetch == reference.prefetch

    def test_preserves_spec_order(self, toy_advisor):
        specs, _ = toy_advisor.generate_specs()
        reversed_specs = list(reversed(specs))
        candidates = toy_advisor.engine.evaluate_specs(reversed_specs)
        assert [c.label for c in candidates] == [s.label for s in reversed_specs]

    def test_context_is_picklable(self, toy_advisor):
        specs, _ = toy_advisor.generate_specs()
        engine = toy_advisor.engine
        context = engine.context(specs=specs)
        clone = pickle.loads(pickle.dumps(context))
        assert clone.fact_name == context.fact_name
        assert len(clone.specs) == len(specs)
        [candidate] = evaluate_specs_in_context(clone, [0])
        reference = toy_advisor.evaluate_spec(specs[0])
        assert candidate.io_cost_ms == reference.io_cost_ms

    def test_bitmap_scheme_designed_once(self, toy_advisor):
        engine = toy_advisor.engine
        assert engine.bitmap_scheme() is engine.bitmap_scheme()

    def test_advisor_recommend_uses_engine(self, toy_schema, toy_workload, small_system):
        config = AdvisorConfig(max_fragments=10_000, top_candidates=5)
        advisor = AdvisorSession(toy_schema, toy_workload, small_system, config)
        recommendation = advisor.recommend().recommendation
        assert recommendation.ranked
        assert advisor.cache.stats.lookups > 0

    def test_advisor_engine_is_memoized(self, toy_advisor):
        assert toy_advisor.engine is toy_advisor.engine

    def test_advisor_default_cache_is_bounded(self, toy_advisor):
        from repro.core.advisor import DEFAULT_CACHE_ENTRIES

        assert toy_advisor.cache.max_entries == DEFAULT_CACHE_ENTRIES

    def test_evaluate_spec_reports_one_complete_event_naming_the_spec(
        self, toy_advisor
    ):
        engine = toy_advisor.engine
        specs, _ = toy_advisor.generate_specs()
        spec = specs[-1]
        for state in ("cold", "warm"):
            events = []
            engine.evaluate_spec(spec, on_progress=events.append)
            [event] = events
            assert event.label == spec.label, state
            assert event.completed == event.total == 1, state
            assert event.chunk == event.num_chunks == 1, state
            assert event.total_units == len(toy_advisor.workload), state
        assert toy_advisor.cache.stats.candidate_hits == 1

    def test_evaluate_spec_honours_a_pre_set_cancel(self, toy_advisor):
        specs, _ = toy_advisor.generate_specs()
        with pytest.raises(EvaluationCancelled):
            toy_advisor.engine.evaluate_spec(specs[0], cancel=lambda: True)
        # Nothing was evaluated: the next call misses again.
        toy_advisor.engine.evaluate_spec(specs[0])
        assert toy_advisor.cache.stats.candidate_misses == 2

    def test_evaluate_candidates_with_empty_list_returns_empty(self, toy_advisor):
        candidates = toy_advisor.engine.evaluate_specs([])
        assert candidates == []


class TestCompiledInputs:
    """An engine's validation, bitmap scheme and class matrix are compiled
    once per process for content-equal inputs, not once per cache."""

    def test_validate_workload_remembers_a_pass_but_not_a_failure(
        self, toy_schema, toy_workload, small_system, compiled_inputs, monkeypatch
    ):
        calls = []
        original = QueryMix.validate

        def counted(mix, schema):
            calls.append(mix)
            original(mix, schema)

        monkeypatch.setattr(QueryMix, "validate", counted)
        ghost = QueryMix([QueryClass("ghost", [DimensionRestriction("ghost", "level")])])
        engines = []
        for _ in range(2):
            with pytest.raises(WorkloadError):
                EvaluationEngine(toy_schema, ghost, small_system)
            engines.append(EvaluationEngine(toy_schema, toy_workload, small_system))
        assert calls == [ghost, toy_workload, ghost]
        # Each engine has its own cache, and the pass is in none of them.
        for engine in engines:
            assert (len(engine.cache), engine.cache.stats.lookups) == (0, 0)
        # Without caching every construction validates.
        EvaluationEngine(
            toy_schema, toy_workload, small_system, options=EngineOptions(cache=False)
        )
        assert calls == [ghost, toy_workload, ghost, toy_workload]

    def test_content_equal_inputs_share_one_scheme_and_matrix(
        self, compile_calls, apb_small_schema, apb_workload
    ):
        system = SystemParameters(num_disks=16)
        first = AdvisorSession(apb_small_schema, apb_workload, system)
        matrix = first.engine.class_matrix()
        assert dict(compile_calls) == {
            "validate": len(apb_workload), "design": 1, "compile": 1
        }
        # Rebuilt inputs, another cache and another system: nothing compiles.
        again = AdvisorSession(
            apb1_schema(scale=0.02), apb1_query_mix(), system.with_disks(64)
        )
        assert again.cache is not first.cache
        assert again.engine.class_matrix() is matrix
        assert again.design_bitmaps() is first.design_bitmaps()
        assert dict(compile_calls) == {
            "validate": len(apb_workload), "design": 1, "compile": 1
        }
        # Without caching the engine validates, designs and compiles its own.
        uncached = AdvisorSession(
            apb_small_schema, apb_workload, system, options=EngineOptions(cache=False)
        )
        assert uncached.engine.class_matrix() is not matrix
        assert dict(compile_calls) == {
            "validate": 2 * len(apb_workload), "design": 2, "compile": 2
        }

    def test_two_threads_on_content_equal_inputs_compile_once(
        self, compile_calls, monkeypatch
    ):
        compile_matrix = ClassMatrix.compile

        def slow(cls, *args, **kwargs):
            # Long enough for the other thread to arrive while this one
            # compiles, had the memo let both in.
            time.sleep(0.05)
            return compile_matrix(*args, **kwargs)

        monkeypatch.setattr(ClassMatrix, "compile", classmethod(slow))
        inputs = [(apb1_schema(scale=0.02), apb1_query_mix()) for _ in range(2)]
        system = SystemParameters(num_disks=16)
        start = threading.Barrier(2)
        matrices = [None, None]

        def activate(position):
            schema, workload = inputs[position]
            start.wait()
            matrices[position] = AdvisorSession(schema, workload, system).engine.class_matrix()

        threads = [threading.Thread(target=activate, args=(k,)) for k in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert matrices[0] is not None and matrices[0] is matrices[1]
        assert dict(compile_calls) == {
            "validate": len(inputs[0][1]), "design": 1, "compile": 1
        }

    def test_the_memo_never_holds_more_entries_than_its_bound(
        self, compiled_inputs, monkeypatch
    ):
        monkeypatch.setattr(executor_module, "COMPILED_INPUTS_BOUND", 3)
        computed = []

        def compiled(key):
            return executor_module._compiled_input(
                (key,), lambda: computed.append(key) or key.upper()
            )

        for key in "abc":
            compiled(key)
        assert compiled("a") == "A"  # a hit refreshes its recency
        for key in "de":
            compiled(key)
            assert len(compiled_inputs) == 3
        # Least recently used first: b and c went, a stayed.
        assert list(compiled_inputs) == [("a",), ("d",), ("e",)]
        assert computed == ["a", "b", "c", "d", "e"]
        with pytest.raises(ZeroDivisionError):
            executor_module._compiled_input(("f",), lambda: 1 / 0)
        assert list(compiled_inputs) == [("a",), ("d",), ("e",)]

    def test_a_compiled_matrix_is_read_only(self, apb_small_schema, apb_workload):
        # One matrix serves the sessions of every thread: nothing writes it.
        session = AdvisorSession(apb_small_schema, apb_workload, SystemParameters(num_disks=16))
        matrix = session.engine.class_matrix()
        arrays = {
            name: value for name, value in vars(matrix).items() if isinstance(value, np.ndarray)
        }
        arrays["attribute_table"] = matrix.attribute_table
        assert len(arrays) == 9
        for name, array in arrays.items():
            assert array.size, name
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = array[(0,) * array.ndim]


class TestScalarOracleStructures:
    """The scalar oracle derives each (layout, class) structure once."""

    @pytest.fixture
    def derivations(self, monkeypatch):
        """Every ``compute_access_structure`` call, as (layout, class) labels."""
        import repro.costmodel.access as access_module
        import repro.costmodel.model as model_module

        calls = []
        original = access_module.compute_access_structure

        def counted(layout, query, *args, **kwargs):
            calls.append((layout.spec.label, query.name))
            return original(layout, query, *args, **kwargs)

        monkeypatch.setattr(access_module, "compute_access_structure", counted)
        monkeypatch.setattr(model_module, "compute_access_structure", counted)
        return calls

    @pytest.mark.parametrize("cache", [False, True])
    def test_engine_derives_each_structure_once_per_candidate(
        self, derivations, apb_small_schema, apb_workload, small_system, cache
    ):
        session = AdvisorSession(
            apb_small_schema,
            apb_workload,
            small_system,
            AdvisorConfig(max_fragments=10_000),
            options=EngineOptions(vectorize=False, cache=cache),
        )
        specs, _ = session.generate_specs()
        classes = [query.name for query in apb_workload]
        assert len(classes) == 8
        session.evaluate_spec(specs[0])
        assert derivations == [(specs[0].label, name) for name in classes]
        derivations.clear()
        candidates = session.engine.evaluate_specs(specs[:4])
        # A cached candidate is not evaluated again, so derives nothing.
        evaluated = specs[1:4] if cache else specs[:4]
        assert derivations == [
            (spec.label, name) for spec in evaluated for name in classes
        ]
        assert [c.label for c in candidates] == [s.label for s in specs[:4]]

    def test_model_derives_each_structure_once_without_structures(
        self, derivations, apb_small_schema, apb_workload, small_system
    ):
        from repro.bitmap import design_bitmap_scheme
        from repro.costmodel import IOCostModel, workload_structures

        session = AdvisorSession(apb_small_schema, apb_workload, small_system)
        specs, _ = session.generate_specs()
        layout = build_layout(apb_small_schema, specs[0])
        scheme = design_bitmap_scheme(apb_small_schema, apb_workload)
        derivations.clear()
        derived = IOCostModel(small_system).evaluate(layout, apb_workload, scheme)
        assert len(derivations) == len(apb_workload)
        derivations.clear()
        structures = workload_structures(layout, apb_workload, scheme)
        handed = IOCostModel(small_system).evaluate(
            layout, apb_workload, scheme, structures=structures
        )
        assert len(derivations) == len(apb_workload)
        assert handed == derived
