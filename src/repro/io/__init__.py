"""Configuration and result (de)serialization.

The original tool persisted nothing beyond the GUI session; a library needs a
plain, documented interchange format.  This package provides:

* a JSON-friendly configuration format mirroring the input layer of the paper
  (star schema, DBS & disk parameters, weighted query mix), used by the CLI's
  ``--config`` option and by embedding applications, and
* exporters that turn a recommendation into plain dictionaries for downstream
  tooling (dashboards, notebooks, regression baselines).
"""

from repro.io.config import (
    BUNDLED_DATASETS,
    bundled_inputs,
    engine_section_from_dict,
    example_config,
    load_config_file,
    load_engine_section,
    parse_config,
    schema_from_dict,
    schema_to_dict,
    system_from_dict,
    system_to_dict,
    workload_from_list,
    workload_to_list,
)
from repro.io.export import candidate_to_dict, recommendation_to_dict

__all__ = [
    "BUNDLED_DATASETS",
    "bundled_inputs",
    "engine_section_from_dict",
    "example_config",
    "parse_config",
    "load_config_file",
    "load_engine_section",
    "schema_from_dict",
    "schema_to_dict",
    "system_from_dict",
    "system_to_dict",
    "workload_from_list",
    "workload_to_list",
    "candidate_to_dict",
    "recommendation_to_dict",
]
