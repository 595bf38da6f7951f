"""JSON-friendly configuration format for the input layer.

The format mirrors the three input blocks of the paper (§3.1):

.. code-block:: json

    {
      "schema":   { "name": "...", "dimensions": [...], "fact_tables": [...] },
      "system":   { "num_disks": 64, "page_size_bytes": 8192, "disk": {...}, ... },
      "workload": [ { "name": "...", "weight": 3, "restrictions": [["time", "month", 1]] } ]
    }

Every ``*_to_*`` / ``*_from_*`` pair round-trips, so configurations can be
generated programmatically, saved, edited by hand and re-loaded.
:func:`bundled_inputs` builds the other input form, a bundled dataset named
by the CLI's ``--dataset`` flags or a service registration body.  A block of
the wrong shape or type is rejected with the block's
:class:`~repro.errors.WarlockError` subclass naming the block or field, never
a bare ``TypeError`` or ``ValueError``.
"""

from __future__ import annotations

import functools
import json
from typing import Any, Callable, Dict, List, Sequence, Tuple, Type, TypeVar, cast

from repro.datasets import apb1_query_mix, apb1_schema, retail_query_mix, retail_schema
from repro.errors import SchemaError, StorageError, WarlockError, WorkloadError
from repro.schema import Dimension, FactTable, Level, Measure, StarSchema
from repro.skew import SkewSpec
from repro.storage import DiskParameters, SystemParameters
from repro.workload import DimensionRestriction, QueryClass, QueryMix

__all__ = [
    "schema_from_dict",
    "schema_to_dict",
    "system_from_dict",
    "system_to_dict",
    "workload_from_list",
    "workload_to_list",
    "engine_section_from_dict",
    "load_engine_section",
    "parse_config",
    "load_config_file",
    "example_config",
    "BUNDLED_DATASETS",
    "bundled_inputs",
]


_Parser = TypeVar("_Parser", bound=Callable[[Any], Any])


def _block_parser(block: str, error: Type[WarlockError]) -> Callable[[_Parser], _Parser]:
    """Decorate the parser of one configuration block so that JSON of the
    wrong shape — the raw ``AttributeError``, ``KeyError``, ``TypeError`` or
    ``ValueError`` it trips — raises ``error`` naming ``block`` instead."""

    def decorate(parse: _Parser) -> _Parser:
        @functools.wraps(parse)
        def checked(config: Any) -> Any:
            try:
                return parse(config)
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
                raise error(f"invalid {block!r} block: {detail}") from exc

        return cast(_Parser, checked)

    return decorate


def _number(config: Dict[str, Any], key: str, default: Any, convert: Callable) -> Any:
    """``convert(config.get(key, default))``, naming ``key`` when it fails."""
    value = config.get(key, default)
    try:
        return convert(value)
    except (TypeError, ValueError):
        kind = "an integer" if convert is int else "a number"
        raise ValueError(f"{key!r} must be {kind}, got {value!r}") from None


# ---------------------------------------------------------------------------
# Schema
# ---------------------------------------------------------------------------

@_block_parser("schema", SchemaError)
def schema_from_dict(config: Dict[str, Any]) -> StarSchema:
    """Build a :class:`StarSchema` from its dictionary form."""
    try:
        dimension_configs = config["dimensions"]
        fact_configs = config["fact_tables"]
    except KeyError as error:
        raise SchemaError(f"schema config is missing the {error.args[0]!r} block") from error

    dimensions = []
    for dim in dimension_configs:
        dimensions.append(
            Dimension(
                name=dim["name"],
                levels=[Level(str(name), int(card)) for name, card in dim["levels"]],
                skew=SkewSpec(theta=float(dim.get("zipf_theta", 0.0))),
                row_size_bytes=int(dim.get("row_size_bytes", 64)),
            )
        )
    fact_tables = []
    for fact in fact_configs:
        fact_tables.append(
            FactTable(
                name=fact["name"],
                row_count=int(fact["row_count"]),
                row_size_bytes=int(fact["row_size_bytes"]),
                dimension_names=tuple(fact["dimensions"]),
                measures=tuple(
                    Measure(str(name), int(size)) for name, size in fact.get("measures", [])
                ),
            )
        )
    return StarSchema(
        name=config.get("name", "configured_schema"),
        dimensions=dimensions,
        fact_tables=fact_tables,
    )


def schema_to_dict(schema: StarSchema) -> Dict[str, Any]:
    """Dictionary form of a :class:`StarSchema` (inverse of :func:`schema_from_dict`)."""
    return {
        "name": schema.name,
        "dimensions": [
            {
                "name": dimension.name,
                "levels": [[level.name, level.cardinality] for level in dimension.levels],
                "zipf_theta": dimension.skew.theta,
                "row_size_bytes": dimension.row_size_bytes,
            }
            for dimension in schema.dimensions
        ],
        "fact_tables": [
            {
                "name": fact.name,
                "row_count": fact.row_count,
                "row_size_bytes": fact.row_size_bytes,
                "dimensions": list(fact.dimension_names),
                "measures": [[measure.name, measure.size_bytes] for measure in fact.measures],
            }
            for fact in schema.fact_tables
        ],
    }


# ---------------------------------------------------------------------------
# System
# ---------------------------------------------------------------------------

@_block_parser("system", StorageError)
def system_from_dict(config: Dict[str, Any]) -> SystemParameters:
    """Build :class:`SystemParameters` from its dictionary form."""
    if not isinstance(config, dict):
        raise StorageError("system config must be a JSON object")
    disk_config = config.get("disk", {})
    disk = DiskParameters(
        capacity_gb=_number(disk_config, "capacity_gb", 36.0, float),
        avg_seek_ms=_number(disk_config, "avg_seek_ms", 6.0, float),
        avg_rotational_ms=_number(disk_config, "avg_rotational_ms", 3.0, float),
        transfer_mb_per_s=_number(disk_config, "transfer_mb_per_s", 25.0, float),
    )
    return SystemParameters(
        num_disks=_number(config, "num_disks", 64, int),
        disk=disk,
        page_size_bytes=_number(config, "page_size_bytes", 8192, int),
        architecture=config.get("architecture", "shared_disk"),
        num_nodes=config.get("num_nodes"),
        prefetch_pages_fact=config.get("prefetch_pages_fact", "auto"),
        prefetch_pages_bitmap=config.get("prefetch_pages_bitmap", "auto"),
        coordination_overhead_ms=config.get("coordination_overhead_ms"),
    )


def system_to_dict(system: SystemParameters) -> Dict[str, Any]:
    """Dictionary form of :class:`SystemParameters`."""
    payload: Dict[str, Any] = {
        "num_disks": system.num_disks,
        "page_size_bytes": system.page_size_bytes,
        "architecture": system.architecture.value,
        "disk": {
            "capacity_gb": system.disk.capacity_gb,
            "avg_seek_ms": system.disk.avg_seek_ms,
            "avg_rotational_ms": system.disk.avg_rotational_ms,
            "transfer_mb_per_s": system.disk.transfer_mb_per_s,
        },
        "prefetch_pages_fact": system.prefetch_pages_fact,
        "prefetch_pages_bitmap": system.prefetch_pages_bitmap,
    }
    if system.num_nodes is not None:
        payload["num_nodes"] = system.num_nodes
    if system.coordination_overhead_ms is not None:
        payload["coordination_overhead_ms"] = system.coordination_overhead_ms
    return payload


# ---------------------------------------------------------------------------
# Workload
# ---------------------------------------------------------------------------

@_block_parser("workload", WorkloadError)
def workload_from_list(config: Sequence[Dict[str, Any]]) -> QueryMix:
    """Build a :class:`QueryMix` from its list-of-dicts form."""
    if not config:
        raise WorkloadError("workload config must contain at least one query class")
    classes = []
    for entry in config:
        restrictions = []
        for restriction in entry.get("restrictions", []):
            if len(restriction) < 2:
                raise WorkloadError(
                    f"restriction {restriction!r} must be [dimension, level] or "
                    f"[dimension, level, value_count]"
                )
            dimension, level = restriction[0], restriction[1]
            value_count = int(restriction[2]) if len(restriction) > 2 else 1
            restrictions.append(
                DimensionRestriction(str(dimension), str(level), value_count)
            )
        classes.append(
            QueryClass(
                name=entry["name"],
                restrictions=restrictions,
                weight=float(entry.get("weight", 1.0)),
                fact_table=entry.get("fact_table"),
            )
        )
    return QueryMix(classes)


def workload_to_list(workload: QueryMix) -> List[Dict[str, Any]]:
    """List-of-dicts form of a :class:`QueryMix`."""
    payload = []
    for query_class in workload:
        entry: Dict[str, Any] = {
            "name": query_class.name,
            "weight": query_class.weight,
            "restrictions": [
                [restriction.dimension, restriction.level, restriction.value_count]
                for restriction in query_class.restrictions
            ],
        }
        if query_class.fact_table is not None:
            entry["fact_table"] = query_class.fact_table
        payload.append(entry)
    return payload


# ---------------------------------------------------------------------------
# Engine options
# ---------------------------------------------------------------------------

def engine_section_from_dict(raw: Dict[str, Any]) -> Dict[str, Any]:
    """The validated ``"engine"`` block of a configuration dictionary.

    The block supplies defaults for the execution options
    (:class:`repro.api.EngineOptions` fields: ``vectorize``, ``cache``,
    ``cache_dir``, ``persist``, ``cache_max_mb``); the CLI resolves them below
    explicit flags and the environment.  Returns the overrides as a plain
    dict (empty when the block is absent); unknown keys or invalid values are
    an error — a typo must not silently fall back to a default.
    """
    # Imported lazily: repro.api sits above the io layer in the import graph.
    from repro.api.options import EngineOptions

    section = raw.get("engine", {})
    if not section:
        return {}
    EngineOptions.from_dict(section)  # validates keys and values
    return dict(section)


def load_engine_section(path: str) -> Dict[str, Any]:
    """Load and validate the ``"engine"`` block of a JSON configuration file."""
    with open(path, "r", encoding="utf-8") as handle:
        raw = json.load(handle)
    return engine_section_from_dict(raw)


# ---------------------------------------------------------------------------
# Whole configurations
# ---------------------------------------------------------------------------

def parse_config(raw: Dict[str, Any]) -> Tuple[StarSchema, QueryMix, SystemParameters]:
    """Parse a complete configuration dictionary into the three input blocks."""
    if "schema" not in raw:
        raise SchemaError("configuration is missing the 'schema' block")
    if "workload" not in raw:
        raise WorkloadError("configuration is missing the 'workload' block")
    schema = schema_from_dict(raw["schema"])
    system = system_from_dict(raw.get("system", {}))
    workload = workload_from_list(raw["workload"])
    workload.validate(schema)
    return schema, workload, system


#: The bundled datasets, and the defaults of their shorthand's knobs.
BUNDLED_DATASETS = ("apb1", "retail")
DEFAULT_SCALE = 0.1
DEFAULT_SKEW = 0.0
DEFAULT_DISKS = 64
DEFAULT_ARCHITECTURE = "shared_disk"


def bundled_inputs(
    dataset: str,
    scale: float = DEFAULT_SCALE,
    skew: float = DEFAULT_SKEW,
    disks: int = DEFAULT_DISKS,
    architecture: str = DEFAULT_ARCHITECTURE,
) -> Tuple[StarSchema, QueryMix, SystemParameters]:
    """The inputs of a bundled dataset: the CLI's ``--dataset`` flags and a
    registration body's ``{"dataset": ...}`` shorthand.

    ``skew`` is the Zipf theta of the apb1 product dimension (the retail
    dataset has no skew knob).
    """
    if dataset == "apb1":
        schema = apb1_schema(scale=scale, skew={"product": skew} if skew else None)
        workload = apb1_query_mix()
    elif dataset == "retail":
        schema = retail_schema(scale=scale)
        workload = retail_query_mix()
    else:
        raise SchemaError(f"unknown dataset {dataset!r} (apb1 or retail)")
    return schema, workload, SystemParameters(num_disks=disks, architecture=architecture)


def load_config_file(path: str) -> Tuple[StarSchema, QueryMix, SystemParameters]:
    """Load and parse a JSON configuration file."""
    with open(path, "r", encoding="utf-8") as handle:
        raw = json.load(handle)
    return parse_config(raw)


def example_config() -> Dict[str, Any]:
    """A small, valid configuration template (printed by ``warlock example-config``)."""
    return {
        "schema": {
            "name": "my_warehouse",
            "dimensions": [
                {
                    "name": "time",
                    "levels": [["year", 3], ["month", 36]],
                    "zipf_theta": 0.0,
                },
                {
                    "name": "product",
                    "levels": [["group", 50], ["item", 5000]],
                    "zipf_theta": 0.5,
                },
            ],
            "fact_tables": [
                {
                    "name": "sales",
                    "row_count": 10000000,
                    "row_size_bytes": 64,
                    "dimensions": ["time", "product"],
                    "measures": [["revenue", 8]],
                }
            ],
        },
        "system": {
            "num_disks": 32,
            "page_size_bytes": 8192,
            "architecture": "shared_disk",
            "disk": {
                "capacity_gb": 36.0,
                "avg_seek_ms": 6.0,
                "avg_rotational_ms": 3.0,
                "transfer_mb_per_s": 25.0,
            },
            "prefetch_pages_fact": "auto",
            "prefetch_pages_bitmap": "auto",
        },
        "workload": [
            {
                "name": "monthly-by-group",
                "weight": 3,
                "restrictions": [["time", "month", 1], ["product", "group", 1]],
            },
            {
                "name": "yearly-report",
                "weight": 1,
                "restrictions": [["time", "year", 1]],
            },
        ],
        "engine": {
            "vectorize": True,
        },
    }
