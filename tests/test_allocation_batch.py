"""Parity tests for repro.allocation.batch: batched LPT vs the scalar heap.

The scalar schemes (greedy_size_allocation, round_robin_allocation and the
choose_allocation dispatcher) stay the reference implementation; the batched
path used by the candidate-axis executor must reproduce them field by field —
same disk of every fragment, same accumulated occupancy doubles, same scheme
decision — on uniform, skewed and adversarially tie-heavy fragment sizes.
"""

from __future__ import annotations

import heapq

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    FragmentationSpec,
    build_layout,
    choose_allocation,
    design_bitmap_scheme,
    greedy_size_allocation,
)
from repro.allocation import (
    batched_greedy_size_allocation,
    choose_allocations_batch,
    lpt_assignments,
)
from repro.errors import AllocationError


def _reference_lpt(pages: np.ndarray, num_disks: int) -> np.ndarray:
    """The scalar heap loop of greedy.lpt_assignment, inlined verbatim."""
    order = np.argsort(-pages, kind="stable")
    assignment = np.empty(len(pages), dtype=np.int64)
    heap = [(0.0, disk) for disk in range(num_disks)]
    heapq.heapify(heap)
    for fragment_index in order:
        occupancy, disk = heapq.heappop(heap)
        assignment[fragment_index] = disk
        heapq.heappush(heap, (occupancy + float(pages[fragment_index]), disk))
    return assignment


# Skewed distributions with heavy ties: tiny value pools plus large outliers.
_PAGE_VALUES = st.one_of(
    st.sampled_from([0.0, 1.0, 1.0, 2.0, 7.0]),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
)
_PAGES_LISTS = st.lists(
    st.lists(_PAGE_VALUES, min_size=0, max_size=50).map(
        lambda values: np.asarray(values, dtype=np.float64)
    ),
    min_size=1,
    max_size=8,
)


class TestLptAssignments:
    @settings(max_examples=200, deadline=None)
    @given(pages_lists=_PAGES_LISTS, num_disks=st.integers(min_value=1, max_value=16))
    def test_matches_scalar_heap(self, pages_lists, num_disks):
        assignments = lpt_assignments(pages_lists, num_disks)
        assert len(assignments) == len(pages_lists)
        for pages, assignment in zip(pages_lists, assignments):
            assert np.array_equal(assignment, _reference_lpt(pages, num_disks))

    def test_empty_batch(self):
        assert lpt_assignments([], 4) == []

    def test_all_empty_candidates(self):
        assignments = lpt_assignments([np.empty(0), np.empty(0)], 4)
        assert all(a.shape == (0,) for a in assignments)

    def test_mixed_lengths_pad_correctly(self):
        # One long, one short candidate: the short one leaves the lockstep
        # early, which must not disturb either's occupancy accounting.
        long = np.array([5.0, 4.0, 3.0, 2.0, 1.0, 1.0, 1.0])
        short = np.array([9.0])
        for pages, assignment in zip(
            [long, short], lpt_assignments([long, short], 3)
        ):
            assert np.array_equal(assignment, _reference_lpt(pages, 3))

    def test_invalid_disks(self):
        with pytest.raises(AllocationError):
            lpt_assignments([np.array([1.0])], 0)


@pytest.fixture
def mixed_layouts(toy_schema, skewed_schema):
    """Uniform and skewed layouts, as one candidate group would mix them."""
    return [
        build_layout(
            toy_schema, FragmentationSpec.of(("time", "month"), ("store", "region"))
        ),
        build_layout(skewed_schema, FragmentationSpec.of(("product", "item"))),
        build_layout(toy_schema, FragmentationSpec.of(("time", "quarter"))),
        build_layout(
            skewed_schema,
            FragmentationSpec.of(("product", "item"), ("time", "quarter")),
        ),
    ]


def _assert_allocations_identical(batched, scalar):
    assert batched.scheme == scalar.scheme
    assert np.array_equal(batched.disk_of_fragment, scalar.disk_of_fragment)
    assert np.array_equal(batched.fragment_pages, scalar.fragment_pages)
    assert np.array_equal(batched.occupancy_pages, scalar.occupancy_pages)
    assert batched.occupancy_cv == scalar.occupancy_cv


class TestBatchedGreedy:
    def test_field_parity_per_layout(self, mixed_layouts, small_system):
        batched = batched_greedy_size_allocation(mixed_layouts, small_system)
        for layout, allocation in zip(mixed_layouts, batched):
            _assert_allocations_identical(
                allocation, greedy_size_allocation(layout, small_system)
            )

    def test_field_parity_with_bitmaps(
        self, mixed_layouts, small_system, toy_schema, toy_workload
    ):
        scheme = design_bitmap_scheme(toy_schema, toy_workload)
        layouts = [layout for layout in mixed_layouts if layout.schema is toy_schema]
        batched = batched_greedy_size_allocation(layouts, small_system, scheme)
        for layout, allocation in zip(layouts, batched):
            _assert_allocations_identical(
                allocation, greedy_size_allocation(layout, small_system, scheme)
            )


class TestChooseAllocationsBatch:
    def test_scheme_decisions_match_scalar_chooser(self, mixed_layouts, small_system):
        batched = choose_allocations_batch(mixed_layouts, small_system)
        for layout, allocation in zip(mixed_layouts, batched):
            _assert_allocations_identical(
                allocation, choose_allocation(layout, small_system)
            )

    def test_threshold_override(self, mixed_layouts, small_system):
        forced = choose_allocations_batch(
            mixed_layouts, small_system, skew_threshold_cv=1e9
        )
        assert all(allocation.scheme == "round_robin" for allocation in forced)

    def test_invalid_threshold(self, mixed_layouts, small_system):
        with pytest.raises(AllocationError):
            choose_allocations_batch(
                mixed_layouts, small_system, skew_threshold_cv=-1
            )

    def test_empty_group(self, small_system):
        assert choose_allocations_batch([], small_system) == []


class TestSkewedMixedChunks:
    def test_full_skewed_chunks_match_choose_allocation(self, monkeypatch):
        """Wide chunks mixing dimensions and schemes: each allocation equals
        the per-candidate choose_allocation reference."""
        from repro import AdvisorConfig, AdvisorSession, SystemParameters, synthetic_schema
        from repro.engine import executor as executor_module
        from repro.workload.generator import random_query_mix

        schema = synthetic_schema(
            num_dimensions=7,
            levels_per_dimension=3,
            bottom_cardinality=400,
            fact_rows=30_000_000,
        )
        workload = random_query_mix(schema, num_classes=40, seed=1)
        schema = schema.with_skew({"dim0": 1.0, "dim1": 0.5})
        system = SystemParameters(num_disks=64)
        config = AdvisorConfig(max_fragments=30_000, max_fragmentation_dimensions=3)
        advisor = AdvisorSession(schema, workload, system, config)
        specs, _ = advisor.generate_specs()
        # Record the chunks the engine's sweep driver actually dispatches.
        chunks = []
        evaluate_chunk = executor_module.evaluate_specs_in_context

        def recording(context, indices, cache=None, placed=None):
            candidates = evaluate_chunk(context, indices, cache, placed)
            chunks.append(candidates)
            return candidates

        monkeypatch.setattr(executor_module, "evaluate_specs_in_context", recording)
        advisor.engine.evaluate_specs(specs)
        assert len(chunks) > 1
        schemes = set()
        for candidates in chunks:
            assert len({candidate.spec.dimensions for candidate in candidates}) > 1
            for candidate in candidates:
                reference = choose_allocation(
                    candidate.layout,
                    system,
                    candidate.bitmap_scheme,
                    skew_threshold_cv=config.allocation_skew_cv,
                )
                _assert_allocations_identical(candidate.allocation, reference)
                schemes.add(candidate.allocation.scheme)
        assert schemes == {"greedy_size", "round_robin"}


#: The FULL synthetic warehouse's skew (as in TestSkewedMixedChunks).
_FULL_SKEW = {"dim0": 1.0, "dim1": 0.5}


def _full_session(skew=None, options=None):
    """A session on the FULL synthetic warehouse: 263 survivors, 64 disks."""
    from repro import AdvisorConfig, AdvisorSession, SystemParameters, synthetic_schema
    from repro.workload.generator import random_query_mix

    schema = synthetic_schema(
        num_dimensions=7,
        levels_per_dimension=3,
        bottom_cardinality=400,
        fact_rows=30_000_000,
    )
    workload = random_query_mix(schema, num_classes=40, seed=1)
    if skew:
        schema = schema.with_skew(skew)
    config = AdvisorConfig(max_fragments=30_000, max_fragmentation_dimensions=3)
    return AdvisorSession(
        schema, workload, SystemParameters(num_disks=64), config, options=options
    )


def _count_lpt_passes(monkeypatch):
    """Record the widths of every lpt_assignments pass (one list per pass)."""
    from repro.allocation import batch as batch_module

    passes = []
    lpt = batch_module.lpt_assignments

    def counting(pages_list, num_disks):
        passes.append([len(pages) for pages in pages_list])
        return lpt(pages_list, num_disks)

    monkeypatch.setattr(batch_module, "lpt_assignments", counting)
    return passes


class TestSweepPlacement:
    """A batched sweep places all its candidates before its first chunk."""

    def test_skewed_sweep_places_every_greedy_survivor_in_one_pass(self, monkeypatch):
        passes = _count_lpt_passes(monkeypatch)
        result = _full_session(_FULL_SKEW).recommend()
        greedy = [
            candidate
            for candidate in result.recommendation.evaluated
            if candidate.allocation.scheme == "greedy_size"
        ]
        assert len(greedy) == 162
        assert len(passes) == 1
        assert sorted(passes[0]) == sorted(c.fragment_count for c in greedy)
        assert max(passes[0]) == 4032

    def test_a_smaller_cell_budget_splits_the_pass_only(self, monkeypatch):
        from repro.allocation import batch as batch_module

        budget = 162 * 4032 // 3
        monkeypatch.setattr(batch_module, "LPT_CELL_BUDGET", budget)
        passes = _count_lpt_passes(monkeypatch)
        session = _full_session(_FULL_SKEW)
        specs, _ = session.generate_specs()
        candidates = session.engine.evaluate_specs(specs)
        assert len(passes) >= 2
        for widths in passes:
            assert len(widths) * max(widths) <= budget
        assert sum(len(widths) for widths in passes) == 162
        system, config = session.system, session.config
        for candidate in candidates:
            reference = choose_allocation(
                candidate.layout,
                system,
                candidate.bitmap_scheme,
                skew_threshold_cv=config.allocation_skew_cv,
            )
            _assert_allocations_identical(candidate.allocation, reference)

    def test_uniform_sweep_builds_no_placement_vector(self, monkeypatch):
        from repro.allocation import batch as batch_module
        from repro.allocation import greedy as greedy_module
        from repro.allocation import round_robin as round_robin_module
        from repro.allocation import fragment_total_pages

        calls = []

        def counting(layout, bitmap_scheme=None):
            calls.append(layout)
            return fragment_total_pages(layout, bitmap_scheme)

        for module in (round_robin_module, greedy_module, batch_module):
            monkeypatch.setattr(module, "fragment_total_pages", counting)
        session = _full_session()
        evaluated = session.recommend().recommendation.evaluated
        assert len(evaluated) == 263
        assert {candidate.allocation.scheme for candidate in evaluated} == {"round_robin"}
        assert calls == []
        # Reading one candidate's vectors derives that candidate's only.
        first, others = evaluated[0], evaluated[1:]
        disks = first.allocation.disk_of_fragment
        pages = first.allocation.fragment_pages
        assert calls == [first.layout]
        assert not any(
            "disk_of_fragment" in vars(candidate.allocation)
            or "fragment_pages" in vars(candidate.allocation)
            for candidate in others
        )
        count = first.fragment_count
        expected_disks = np.arange(count, dtype=np.int64) % 64
        assert disks.tobytes() == expected_disks.tobytes()
        expected_pages = fragment_total_pages(first.layout, first.bitmap_scheme)
        assert pages.tobytes() == expected_pages.tobytes()


@pytest.fixture(scope="module")
def lone_candidates():
    """The widest greedy survivor and a round-robin survivor of the FULL
    `SKEW` sweep, as evaluated by the batched sweep."""
    evaluated = _full_session(_FULL_SKEW).recommend().recommendation.evaluated
    greedy = [c for c in evaluated if c.allocation.scheme == "greedy_size"]
    widest = max(greedy, key=lambda candidate: candidate.fragment_count)
    round_robin = next(
        c for c in evaluated if c.allocation.scheme == "round_robin"
    )
    return widest, round_robin


class TestSingleCandidate:
    """One candidate runs the sweep driver; its greedy placement runs the heap."""

    def test_evaluate_spec_is_one_chunk_equal_to_the_scalar_oracle(
        self, monkeypatch, lone_candidates
    ):
        from repro import EngineOptions
        from repro.engine import executor as executor_module

        specs = [candidate.spec for candidate in lone_candidates]
        oracle = _full_session(_FULL_SKEW, EngineOptions(vectorize=False))
        expected = [oracle.engine.evaluate_spec(spec) for spec in specs]
        chunks = []
        evaluate_chunk = executor_module.evaluate_specs_in_context

        def recording(context, indices, cache=None, placed=None):
            chunks.append(list(indices))
            return evaluate_chunk(context, indices, cache, placed)

        monkeypatch.setattr(executor_module, "evaluate_specs_in_context", recording)
        for spec, reference in zip(specs, expected):
            chunks.clear()
            candidate = _full_session(_FULL_SKEW).engine.evaluate_spec(spec)
            assert chunks == [[0]]
            assert candidate.label == reference.label == spec.label
            assert candidate.io_cost_ms == reference.io_cost_ms
            assert candidate.response_time_ms == reference.response_time_ms
            assert candidate.evaluation.per_class == reference.evaluation.per_class
            assert candidate.prefetch == reference.prefetch
            _assert_allocations_identical(candidate.allocation, reference.allocation)
        assert [c.allocation.scheme for c in expected] == ["greedy_size", "round_robin"]

    def test_one_greedy_layout_is_placed_by_the_heap(
        self, monkeypatch, lone_candidates
    ):
        widest = lone_candidates[0]
        session = _full_session(_FULL_SKEW)
        system, threshold = session.system, session.config.allocation_skew_cv
        passes = _count_lpt_passes(monkeypatch)
        [allocation] = choose_allocations_batch(
            [widest.layout], system, widest.bitmap_scheme, skew_threshold_cv=threshold
        )
        assert passes == []
        reference = choose_allocation(
            widest.layout, system, widest.bitmap_scheme, skew_threshold_cv=threshold
        )
        assert reference.scheme == "greedy_size"
        _assert_allocations_identical(allocation, reference)

    def test_a_single_evaluation_never_writes_the_store(
        self, monkeypatch, tmp_path, lone_candidates
    ):
        from repro import EngineOptions
        from repro.engine import CacheStore

        saves = []
        save = CacheStore.save

        def counting(store, *args, **kwargs):
            saves.append(store.cache_dir)
            return save(store, *args, **kwargs)

        monkeypatch.setattr(CacheStore, "save", counting)
        spec = lone_candidates[0].spec
        single = _full_session(
            _FULL_SKEW, EngineOptions(cache_dir=str(tmp_path / "single"))
        )
        single.engine.evaluate_spec(spec)
        assert single.cache.stats.candidate_misses == 1
        assert saves == []
        sweep = _full_session(_FULL_SKEW, EngineOptions(cache_dir=str(tmp_path / "sweep")))
        sweep.engine.evaluate_specs([spec])
        assert sweep.cache.stats.candidate_misses == 1
        assert saves == [str(tmp_path / "sweep")]


@pytest.fixture(scope="module")
def skewed_oracle_fingerprint():
    """The scalar oracle's fingerprint of the FULL `SKEW` sweep."""
    from repro import EngineOptions

    oracle = _full_session(_FULL_SKEW, EngineOptions(vectorize=False))
    return oracle.recommend().fingerprint


class TestChunkShapes:
    """However a sweep's misses are cut into chunks, the answer stays the same."""

    @pytest.mark.parametrize(
        "inline_chunks, max_width, num_chunks",
        [(1, 263, 1), (8, 1, 263), (None, None, 8)],
        ids=["one-chunk", "one-candidate-chunks", "default"],
    )
    def test_chunk_shape_never_changes_an_answer(
        self,
        monkeypatch,
        skewed_oracle_fingerprint,
        inline_chunks,
        max_width,
        num_chunks,
    ):
        from repro.engine import executor as executor_module

        if inline_chunks is not None:
            monkeypatch.setattr(executor_module, "INLINE_CHUNKS", inline_chunks)
            monkeypatch.setattr(executor_module, "MAX_CHUNK_WIDTH", max_width)
        chunks = []
        evaluate_chunk = executor_module.evaluate_specs_in_context

        def recording(context, indices, cache=None, placed=None):
            chunks.append(list(indices))
            return evaluate_chunk(context, indices, cache, placed)

        monkeypatch.setattr(executor_module, "evaluate_specs_in_context", recording)
        result = _full_session(_FULL_SKEW).recommend()
        evaluated = result.recommendation.evaluated
        schemes = {candidate.allocation.scheme for candidate in evaluated}
        assert schemes == {"greedy_size", "round_robin"}
        # Consecutive runs that cover every index once, in sweep order.
        assert len(chunks) == num_chunks
        assert [index for chunk in chunks for index in chunk] == list(
            range(len(evaluated))
        )
        widths = [len(chunk) for chunk in chunks]
        assert max(widths) - min(widths) <= 1
        assert result.fingerprint == skewed_oracle_fingerprint
