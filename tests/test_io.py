"""Unit tests for repro.io: configuration round-trips and result exporters."""

from __future__ import annotations

import json

import pytest

from repro import (
    AdvisorConfig,
    AdvisorSession,
    SystemParameters,
    apb1_query_mix,
    apb1_schema,
    candidate_to_dict,
    load_config_file,
    parse_config,
    recommendation_to_dict,
    schema_from_dict,
    schema_to_dict,
    system_from_dict,
    system_to_dict,
    workload_from_list,
    workload_to_list,
)
from repro.errors import SchemaError, StorageError, WorkloadError
from repro.io import example_config


class TestSchemaRoundTrip:
    def test_roundtrip_preserves_structure(self, toy_schema):
        restored = schema_from_dict(schema_to_dict(toy_schema))
        assert restored.name == toy_schema.name
        assert restored.dimension_names == toy_schema.dimension_names
        for dimension in toy_schema.dimensions:
            other = restored.dimension(dimension.name)
            assert other.level_names == dimension.level_names
            assert other.cardinality == dimension.cardinality
            assert other.skew.theta == dimension.skew.theta
        assert restored.fact_table().row_count == toy_schema.fact_table().row_count

    def test_roundtrip_is_json_serializable(self, skewed_schema):
        payload = json.dumps(schema_to_dict(skewed_schema))
        restored = schema_from_dict(json.loads(payload))
        assert restored.dimension("product").skew.theta == pytest.approx(1.0)

    def test_apb1_roundtrip(self):
        schema = apb1_schema(scale=0.1, skew={"product": 0.5})
        restored = schema_from_dict(schema_to_dict(schema))
        assert restored.dimension("product").level("code").cardinality == 9000
        assert restored.fact_table().row_count == schema.fact_table().row_count

    def test_missing_block_rejected(self):
        with pytest.raises(SchemaError):
            schema_from_dict({"name": "x", "dimensions": []})


class TestSystemRoundTrip:
    def test_roundtrip(self):
        system = SystemParameters(
            num_disks=48,
            page_size_bytes=4096,
            architecture="SE",
            prefetch_pages_fact=32,
            num_nodes=6,
            coordination_overhead_ms=1.5,
        )
        restored = system_from_dict(system_to_dict(system))
        assert restored.num_disks == 48
        assert restored.page_size_bytes == 4096
        assert restored.architecture is system.architecture
        assert restored.prefetch_pages_fact == 32
        assert restored.bitmap_prefetch_is_auto
        assert restored.num_nodes == 6
        assert restored.coordination_overhead_ms == pytest.approx(1.5)

    def test_defaults_applied(self):
        system = system_from_dict({})
        assert system.num_disks == 64
        assert system.fact_prefetch_is_auto

    def test_invalid_config_rejected(self):
        with pytest.raises(StorageError):
            system_from_dict("not a dict")  # type: ignore[arg-type]


class TestWorkloadRoundTrip:
    def test_roundtrip(self, toy_workload):
        restored = workload_from_list(workload_to_list(toy_workload))
        assert len(restored) == len(toy_workload)
        for query_class in toy_workload:
            other = restored.query_class(query_class.name)
            assert other.weight == query_class.weight
            assert other.accessed_dimensions == query_class.accessed_dimensions

    def test_value_count_defaults_to_one(self):
        mix = workload_from_list(
            [{"name": "q", "restrictions": [["time", "month"]], "weight": 2}]
        )
        assert mix.query_class("q").restrictions[0].value_count == 1

    def test_invalid_restriction_shape(self):
        with pytest.raises(WorkloadError):
            workload_from_list([{"name": "q", "restrictions": [["time"]]}])

    def test_empty_rejected(self):
        with pytest.raises(WorkloadError):
            workload_from_list([])


class TestParseConfig:
    def test_example_config_parses_and_validates(self):
        schema, workload, system = parse_config(example_config())
        assert schema.name == "my_warehouse"
        assert len(workload) == 2
        assert system.num_disks == 32

    def test_missing_blocks_rejected(self):
        with pytest.raises(SchemaError):
            parse_config({"workload": []})
        with pytest.raises(WorkloadError):
            parse_config({"schema": example_config()["schema"]})

    @pytest.mark.parametrize(
        "system",
        [
            {"num_disks": 16.9},
            {"num_disks": True},
            {"num_disks": "16"},
            {"page_size_bytes": 8192.5},
        ],
        ids=["fraction", "bool", "string", "page-size-fraction"],
    )
    def test_an_int_field_takes_only_an_int(self, system):
        # int() would read 16.9 as 16 disks and true as 1 disk.
        key = next(iter(system))
        with pytest.raises(StorageError, match=key):
            parse_config({**example_config(), "system": system})

    def test_inconsistent_workload_rejected(self):
        raw = example_config()
        raw["workload"][0]["restrictions"] = [["ghost", "level", 1]]
        with pytest.raises(WorkloadError):
            parse_config(raw)

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(example_config()))
        schema, workload, system = load_config_file(str(path))
        assert schema.has_dimension("product")
        assert workload.query_class("yearly-report").weight == 1


class TestExporters:
    @pytest.fixture(scope="class")
    def recommendation(self):
        schema = apb1_schema(scale=0.02)
        workload = apb1_query_mix()
        system = SystemParameters(num_disks=16)
        advisor = AdvisorSession(schema, workload, system, AdvisorConfig(max_fragments=50_000))
        return advisor.recommend().recommendation

    def test_candidate_export_is_json_serializable(self, recommendation):
        payload = candidate_to_dict(recommendation.best)
        text = json.dumps(payload)
        assert recommendation.best.label in text
        assert payload["metrics"]["io_cost_ms"] > 0
        assert payload["database_statistics"]["fragment_count"] == recommendation.best.fragment_count
        assert payload["prefetch"]["fact_pages"] >= 1
        assert "disk_of_fragment" not in payload["allocation"]

    def test_candidate_export_with_allocation(self, recommendation):
        payload = candidate_to_dict(recommendation.best, include_allocation=True)
        assignment = payload["allocation"]["disk_of_fragment"]
        assert len(assignment) == recommendation.best.fragment_count

    def test_recommendation_export(self, recommendation):
        payload = recommendation_to_dict(recommendation, include_all_candidates=True)
        json.dumps(payload)
        assert payload["candidate_space"]["evaluated"] == len(recommendation.evaluated)
        assert payload["ranked"][0]["final_rank"] == 1
        assert payload["ranked"][0]["fragmentation"] == recommendation.best.label
        assert len(payload["evaluated"]) == len(recommendation.evaluated)
        assert len(payload["best_query_statistics"]) == len(recommendation.workload)

    def test_recommendation_export_minimal(self, recommendation):
        payload = recommendation_to_dict(
            recommendation, include_all_candidates=False, include_query_statistics=False
        )
        assert "evaluated" not in payload
        assert "best_query_statistics" not in payload
