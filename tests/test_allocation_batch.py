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
    """The scalar heap loop of greedy_size_allocation, inlined verbatim."""
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
        # One long, one short candidate: the short one's padded steps must not
        # disturb its occupancy accounting.
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

        def recording(context, indices, cache=None):
            candidates = evaluate_chunk(context, indices, cache)
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
