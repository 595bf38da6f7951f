"""Unit tests for repro.storage: disk parameters, system parameters, architectures."""

from __future__ import annotations

import pytest

from repro import Architecture, DiskParameters, SystemParameters
from repro.errors import StorageError
from repro.storage import MAX_DISKS


class TestDiskParameters:
    def test_positioning_time(self):
        disk = DiskParameters(avg_seek_ms=6.0, avg_rotational_ms=3.0)
        assert disk.positioning_time_ms == pytest.approx(9.0)

    def test_transfer_time_scales_linearly(self):
        disk = DiskParameters(transfer_mb_per_s=25.0)
        one_mb = disk.transfer_time_ms(1024 * 1024)
        assert one_mb == pytest.approx(40.0)
        assert disk.transfer_time_ms(2 * 1024 * 1024) == pytest.approx(2 * one_mb)

    def test_page_transfer_time(self):
        disk = DiskParameters(transfer_mb_per_s=25.0)
        assert disk.page_transfer_time_ms(8192) == pytest.approx(
            disk.transfer_time_ms(8192)
        )

    def test_request_time_includes_positioning(self):
        disk = DiskParameters(avg_seek_ms=5.0, avg_rotational_ms=3.0, transfer_mb_per_s=25.0)
        time_1 = disk.request_time_ms(1, 8192)
        time_16 = disk.request_time_ms(16, 8192)
        assert time_1 > disk.positioning_time_ms
        # 16 pages pay the positioning only once.
        assert time_16 < 16 * time_1

    def test_request_time_zero_pages(self):
        assert DiskParameters().request_time_ms(0, 8192) == 0.0

    def test_capacity_conversions(self):
        disk = DiskParameters(capacity_gb=1.0)
        assert disk.capacity_bytes == 1024 ** 3
        assert disk.capacity_pages(8192) == 1024 ** 3 // 8192

    def test_presets(self):
        assert DiskParameters.modern().transfer_mb_per_s > DiskParameters().transfer_mb_per_s
        assert DiskParameters.legacy().capacity_gb < DiskParameters().capacity_gb

    def test_invalid_parameters(self):
        with pytest.raises(StorageError):
            DiskParameters(capacity_gb=0)
        with pytest.raises(StorageError):
            DiskParameters(avg_seek_ms=-1)
        with pytest.raises(StorageError):
            DiskParameters(avg_rotational_ms=-1)
        with pytest.raises(StorageError):
            DiskParameters(transfer_mb_per_s=0)

    def test_invalid_call_arguments(self):
        disk = DiskParameters()
        with pytest.raises(StorageError):
            disk.transfer_time_ms(-1)
        with pytest.raises(StorageError):
            disk.page_transfer_time_ms(0)
        with pytest.raises(StorageError):
            disk.request_time_ms(-1, 8192)
        with pytest.raises(StorageError):
            disk.capacity_pages(0)


class TestArchitecture:
    def test_parse_aliases(self):
        assert Architecture.parse("SE") is Architecture.SHARED_EVERYTHING
        assert Architecture.parse("shared everything") is Architecture.SHARED_EVERYTHING
        assert Architecture.parse("SD") is Architecture.SHARED_DISK
        assert Architecture.parse("shared_disk") is Architecture.SHARED_DISK
        assert Architecture.parse(Architecture.SHARED_DISK) is Architecture.SHARED_DISK

    def test_parse_unknown(self):
        with pytest.raises(StorageError):
            Architecture.parse("shared nothing")

    def test_labels(self):
        assert "Shared" in Architecture.SHARED_DISK.label
        assert "Shared" in Architecture.SHARED_EVERYTHING.label


class TestSystemParameters:
    def test_defaults(self):
        system = SystemParameters()
        assert system.num_disks == 64
        assert system.fact_prefetch_is_auto
        assert system.bitmap_prefetch_is_auto
        assert system.architecture is Architecture.SHARED_DISK

    def test_architecture_string_coerced(self):
        system = SystemParameters(architecture="SE")
        assert system.architecture is Architecture.SHARED_EVERYTHING

    def test_effective_nodes_default(self):
        assert SystemParameters(num_disks=64).effective_num_nodes == 8
        assert SystemParameters(num_disks=4).effective_num_nodes == 1
        assert SystemParameters(num_disks=64, num_nodes=16).effective_num_nodes == 16

    def test_coordination_overhead_by_architecture(self):
        sd = SystemParameters(architecture="SD")
        se = SystemParameters(architecture="SE")
        assert sd.effective_coordination_overhead_ms > se.effective_coordination_overhead_ms
        explicit = SystemParameters(coordination_overhead_ms=0.0)
        assert explicit.effective_coordination_overhead_ms == 0.0

    def test_fixed_prefetch(self):
        system = SystemParameters(prefetch_pages_fact=32, prefetch_pages_bitmap=4)
        assert not system.fact_prefetch_is_auto
        assert not system.bitmap_prefetch_is_auto

    def test_invalid_prefetch(self):
        with pytest.raises(StorageError):
            SystemParameters(prefetch_pages_fact=0)
        with pytest.raises(StorageError):
            SystemParameters(prefetch_pages_bitmap="sometimes")
        with pytest.raises(StorageError):
            SystemParameters(prefetch_pages_fact=True)

    def test_capacity_totals(self):
        system = SystemParameters(num_disks=4, disk=DiskParameters(capacity_gb=1.0))
        assert system.total_capacity_bytes == 4 * 1024 ** 3
        assert system.total_capacity_pages == 4 * (1024 ** 3 // 8192)

    def test_pages_for_bytes(self):
        system = SystemParameters(page_size_bytes=8192)
        assert system.pages_for_bytes(0) == 0
        assert system.pages_for_bytes(1) == 1
        assert system.pages_for_bytes(8192) == 1
        assert system.pages_for_bytes(8193) == 2
        with pytest.raises(StorageError):
            system.pages_for_bytes(-1)

    def test_with_disks_preserves_other_fields(self):
        system = SystemParameters(num_disks=8, prefetch_pages_fact=16)
        scaled = system.with_disks(128)
        assert scaled.num_disks == 128
        assert scaled.prefetch_pages_fact == 16
        assert scaled.page_size_bytes == system.page_size_bytes

    def test_with_architecture(self):
        system = SystemParameters(architecture="SD")
        se = system.with_architecture("SE")
        assert se.architecture is Architecture.SHARED_EVERYTHING
        assert se.num_disks == system.num_disks

    def test_with_prefetch(self):
        system = SystemParameters()
        fixed = system.with_prefetch(fact=64, bitmap=2)
        assert fixed.prefetch_pages_fact == 64
        assert fixed.prefetch_pages_bitmap == 2
        partially = system.with_prefetch(fact=8)
        assert partially.prefetch_pages_fact == 8
        assert partially.bitmap_prefetch_is_auto

    def test_invalid_construction(self):
        with pytest.raises(StorageError):
            SystemParameters(num_disks=0)
        with pytest.raises(StorageError):
            SystemParameters(page_size_bytes=0)
        with pytest.raises(StorageError):
            SystemParameters(num_nodes=0)
        with pytest.raises(StorageError):
            SystemParameters(coordination_overhead_ms=-1.0)
        with pytest.raises(StorageError):
            SystemParameters(disk="not-a-disk")  # type: ignore[arg-type]
        with pytest.raises(StorageError):
            SystemParameters(architecture="mesh")

    @pytest.mark.parametrize("disks", [True, 8.0, "8", MAX_DISKS + 1, 10**30])
    def test_disk_count_is_a_bounded_integer(self, disks):
        # The evaluation keeps per-disk state, so the count is checked before
        # anything is sized by it.
        with pytest.raises(StorageError, match="num_disks"):
            SystemParameters(num_disks=disks)
        with pytest.raises(StorageError, match="num_disks"):
            SystemParameters().with_disks(disks)

    def test_disk_count_bounds_are_inclusive(self):
        assert SystemParameters(num_disks=1).num_disks == 1
        assert SystemParameters(num_disks=MAX_DISKS).num_disks == MAX_DISKS

    def test_describe_mentions_key_facts(self):
        text = SystemParameters(num_disks=16).describe()
        assert "16 disks" in text
        assert "page size" in text
