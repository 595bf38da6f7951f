"""Unit tests for repro.allocation: placement invariants, round-robin, greedy, chooser."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    FragmentationSpec,
    SystemParameters,
    build_layout,
    choose_allocation,
    design_bitmap_scheme,
    greedy_size_allocation,
    round_robin_allocation,
)
from repro.allocation import Allocation, fragment_total_pages
from repro.allocation import round_robin as round_robin_module
from repro.errors import AllocationError
from repro.storage import DiskParameters


@pytest.fixture
def uniform_layout(toy_schema):
    return build_layout(toy_schema, FragmentationSpec.of(("time", "month"), ("store", "region")))


@pytest.fixture
def skewed_layout(skewed_schema):
    return build_layout(skewed_schema, FragmentationSpec.of(("product", "item")))


class TestFragmentTotalPages:
    def test_without_bitmaps_equals_fact_pages(self, uniform_layout):
        pages = fragment_total_pages(uniform_layout)
        assert np.array_equal(pages, uniform_layout.fragment_fact_pages.astype(float))

    def test_with_bitmaps_adds_pages(self, uniform_layout, toy_schema, toy_workload):
        scheme = design_bitmap_scheme(toy_schema, toy_workload)
        with_bitmaps = fragment_total_pages(uniform_layout, scheme)
        without = fragment_total_pages(uniform_layout)
        assert np.all(with_bitmaps >= without)
        assert with_bitmaps.sum() > without.sum()


class TestRoundRobin:
    def test_every_fragment_placed(self, uniform_layout, small_system):
        allocation = round_robin_allocation(uniform_layout, small_system)
        assert allocation.disk_of_fragment.shape == (uniform_layout.fragment_count,)
        assert allocation.scheme == "round_robin"

    def test_cyclic_assignment(self, uniform_layout, small_system):
        allocation = round_robin_allocation(uniform_layout, small_system)
        expected = np.arange(uniform_layout.fragment_count) % small_system.num_disks
        assert np.array_equal(allocation.disk_of_fragment, expected)

    def test_start_disk_offset(self, uniform_layout, small_system):
        allocation = round_robin_allocation(uniform_layout, small_system, start_disk=3)
        assert allocation.disk_of(0) == 3
        assert allocation.disk_of(1) == 4

    def test_start_disk_out_of_range(self, uniform_layout, small_system):
        with pytest.raises(AllocationError):
            round_robin_allocation(uniform_layout, small_system, start_disk=99)

    def test_uniform_fragments_balanced(self, uniform_layout, small_system):
        allocation = round_robin_allocation(uniform_layout, small_system)
        # 96 equal fragments over 8 disks: perfectly even.
        assert allocation.occupancy_cv == pytest.approx(0.0, abs=1e-9)
        assert allocation.occupancy_imbalance == pytest.approx(1.0)

    def test_fragments_per_disk(self, uniform_layout, small_system):
        allocation = round_robin_allocation(uniform_layout, small_system)
        assert allocation.fragments_per_disk.sum() == uniform_layout.fragment_count
        assert allocation.fragments_per_disk.max() - allocation.fragments_per_disk.min() <= 1

    def test_neighbouring_fragments_on_distinct_disks(self, uniform_layout, small_system):
        """Logical round-robin: consecutive fragments land on different disks."""
        allocation = round_robin_allocation(uniform_layout, small_system)
        consecutive = allocation.disk_of_fragment[:8]
        assert len(set(consecutive.tolist())) == 8

    @pytest.mark.parametrize("start_disk", [0, 3])
    def test_vectors_are_derived_on_first_read_and_kept(
        self, uniform_layout, small_system, toy_schema, toy_workload, monkeypatch,
        start_disk,
    ):
        scheme = design_bitmap_scheme(toy_schema, toy_workload)
        count = uniform_layout.fragment_count
        expected_disks = (np.arange(count, dtype=np.int64) + start_disk) % 8
        expected_pages = fragment_total_pages(uniform_layout, scheme)
        calls = []

        def counting(layout, bitmap_scheme=None):
            calls.append(layout)
            return fragment_total_pages(layout, bitmap_scheme)

        monkeypatch.setattr(round_robin_module, "fragment_total_pages", counting)
        allocation = round_robin_allocation(
            uniform_layout, small_system, scheme, start_disk=start_disk
        )
        assert calls == []
        disks = allocation.disk_of_fragment
        assert disks.dtype == np.int64
        assert disks.tobytes() == expected_disks.tobytes()
        assert calls == []
        pages = allocation.fragment_pages
        assert pages.dtype == np.float64
        assert pages.tobytes() == expected_pages.tobytes()
        assert allocation.disk_of_fragment is disks
        assert allocation.fragment_pages is pages
        assert calls == [uniform_layout]


class TestGreedy:
    def test_every_fragment_placed(self, skewed_layout, small_system):
        allocation = greedy_size_allocation(skewed_layout, small_system)
        assert allocation.disk_of_fragment.shape == (skewed_layout.fragment_count,)
        assert allocation.scheme == "greedy_size"
        assert allocation.total_pages == pytest.approx(
            fragment_total_pages(skewed_layout).sum()
        )

    def test_greedy_balances_skewed_sizes_better(self, skewed_layout, small_system):
        greedy = greedy_size_allocation(skewed_layout, small_system)
        round_robin = round_robin_allocation(skewed_layout, small_system)
        assert greedy.occupancy_cv <= round_robin.occupancy_cv + 1e-12

    def test_greedy_near_optimal_for_uniform(self, uniform_layout, small_system):
        allocation = greedy_size_allocation(uniform_layout, small_system)
        assert allocation.occupancy_imbalance <= 1.01

    def test_deterministic(self, skewed_layout, small_system):
        first = greedy_size_allocation(skewed_layout, small_system)
        second = greedy_size_allocation(skewed_layout, small_system)
        assert np.array_equal(first.disk_of_fragment, second.disk_of_fragment)


class TestChooser:
    def test_uniform_data_uses_round_robin(self, uniform_layout, small_system):
        allocation = choose_allocation(uniform_layout, small_system)
        assert allocation.scheme == "round_robin"

    def test_notable_skew_uses_greedy(self, skewed_layout, small_system):
        allocation = choose_allocation(skewed_layout, small_system)
        assert allocation.scheme == "greedy_size"

    def test_threshold_override(self, skewed_layout, small_system):
        forced_round_robin = choose_allocation(
            skewed_layout, small_system, skew_threshold_cv=1e9
        )
        assert forced_round_robin.scheme == "round_robin"

    def test_invalid_threshold(self, uniform_layout, small_system):
        with pytest.raises(AllocationError):
            choose_allocation(uniform_layout, small_system, skew_threshold_cv=-1)


class TestAllocationObject:
    def test_disk_of_and_fragments_on_consistent(self, uniform_layout, small_system):
        allocation = round_robin_allocation(uniform_layout, small_system)
        for disk in range(small_system.num_disks):
            for fragment in allocation.fragments_on(disk):
                assert allocation.disk_of(int(fragment)) == disk

    def test_disk_of_out_of_range(self, uniform_layout, small_system):
        allocation = round_robin_allocation(uniform_layout, small_system)
        with pytest.raises(AllocationError):
            allocation.disk_of(-1)
        with pytest.raises(AllocationError):
            allocation.disk_of(uniform_layout.fragment_count)
        with pytest.raises(AllocationError):
            allocation.fragments_on(small_system.num_disks)

    def test_occupancy_sums_to_total(self, skewed_layout, small_system):
        allocation = greedy_size_allocation(skewed_layout, small_system)
        assert allocation.occupancy_pages.sum() == pytest.approx(allocation.total_pages)

    def test_occupancy_summary_keys(self, uniform_layout, small_system):
        summary = round_robin_allocation(uniform_layout, small_system).occupancy_summary()
        assert {"scheme", "num_disks", "total_pages", "occupancy_cv"} <= set(summary)

    def test_access_distribution_full_fragments(self, uniform_layout, small_system):
        allocation = round_robin_allocation(uniform_layout, small_system)
        distribution = allocation.access_distribution([0, 1, 2])
        assert distribution.sum() == pytest.approx(allocation.fragment_pages[:3].sum())

    def test_access_distribution_custom_pages(self, uniform_layout, small_system):
        allocation = round_robin_allocation(uniform_layout, small_system)
        distribution = allocation.access_distribution([0, 8], [5.0, 7.0])
        # Fragments 0 and 8 are both on disk 0 under round-robin over 8 disks.
        assert distribution[0] == pytest.approx(12.0)
        assert distribution[1:].sum() == pytest.approx(0.0)

    def test_access_distribution_validation(self, uniform_layout, small_system):
        allocation = round_robin_allocation(uniform_layout, small_system)
        with pytest.raises(AllocationError):
            allocation.access_distribution([10_000])
        with pytest.raises(AllocationError):
            allocation.access_distribution([0, 1], [1.0])

    def test_capacity_check(self, uniform_layout, small_system, tiny_disk_system):
        roomy = round_robin_allocation(uniform_layout, small_system)
        assert roomy.fits_capacity()
        cramped = round_robin_allocation(uniform_layout, tiny_disk_system)
        assert not cramped.fits_capacity()
        assert cramped.disks_needed_for_capacity() > tiny_disk_system.num_disks

    def test_invalid_construction(self, uniform_layout, small_system):
        pages = fragment_total_pages(uniform_layout)
        bad_assignment = np.zeros(3, dtype=np.int64)
        with pytest.raises(AllocationError):
            Allocation(
                layout=uniform_layout,
                system=small_system,
                disk_of_fragment=bad_assignment,
                fragment_pages=pages,
                scheme="x",
            )
        out_of_range = np.full(uniform_layout.fragment_count, 99, dtype=np.int64)
        with pytest.raises(AllocationError):
            Allocation(
                layout=uniform_layout,
                system=small_system,
                disk_of_fragment=out_of_range,
                fragment_pages=pages,
                scheme="x",
            )
        negative_pages = -pages
        with pytest.raises(AllocationError):
            Allocation(
                layout=uniform_layout,
                system=small_system,
                disk_of_fragment=np.zeros(uniform_layout.fragment_count, dtype=np.int64),
                fragment_pages=negative_pages,
                scheme="x",
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_pages_are_rejected(self, uniform_layout, small_system, bad):
        pages = fragment_total_pages(uniform_layout)
        pages[0] = bad
        with pytest.raises(AllocationError):
            Allocation(
                layout=uniform_layout,
                system=small_system,
                disk_of_fragment=np.zeros(uniform_layout.fragment_count, dtype=np.int64),
                fragment_pages=pages,
                scheme="x",
            )

    def test_non_integer_disk_ids_are_rejected(self, uniform_layout, small_system):
        # 1.7 used to be truncated to disk 1; an integer-valued float array
        # is not a disk assignment either.
        fractional = np.zeros(uniform_layout.fragment_count, dtype=np.float64)
        fractional[0] = 1.7
        for disks in (fractional, np.floor(fractional)):
            with pytest.raises(AllocationError):
                Allocation(
                    layout=uniform_layout,
                    system=small_system,
                    disk_of_fragment=disks,
                    fragment_pages=fragment_total_pages(uniform_layout),
                    scheme="x",
                )

    def test_describe(self, uniform_layout, small_system):
        text = round_robin_allocation(uniform_layout, small_system).describe()
        assert "round_robin" in text and "disks" in text
