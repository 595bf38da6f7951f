"""WARLOCK reproduction: a data allocation advisor for parallel data warehouses.

The package reproduces the system demonstrated in

    T. Stöhr, E. Rahm: "WARLOCK: A Data Allocation Tool for Parallel
    Warehouses", Proc. 27th VLDB Conference, Roma, Italy, 2001.

Quickstart::

    from repro import AdvisorSession, SystemParameters, apb1_schema, apb1_query_mix

    session = AdvisorSession(
        apb1_schema(scale=0.1), apb1_query_mix(), SystemParameters(num_disks=64)
    )
    result = session.recommend()
    print(result.recommendation.describe())

    # Incremental what-if edits share the session's evaluation cache:
    print(session.with_delta(disks=32).recommend().recommendation.describe())
"""

from repro.errors import (
    AdvisorError,
    AllocationError,
    BitmapError,
    CostModelError,
    EvaluationCancelled,
    FragmentationError,
    ReportError,
    SchemaError,
    SimulationError,
    StorageError,
    WarlockError,
    WorkloadError,
)
from repro.schema import Dimension, FactTable, Level, Measure, StarSchema, validate_schema
from repro.skew import SkewSpec, ZipfDistribution
from repro.storage import (
    Architecture,
    DiskParameters,
    PrefetchPolicy,
    PrefetchSetting,
    SystemParameters,
)
from repro.workload import DimensionRestriction, QueryClass, QueryMix
from repro.fragmentation import (
    FragmentationAttribute,
    FragmentationLayout,
    FragmentationSpec,
    build_layout,
    count_point_fragmentations,
    enumerate_point_fragmentations,
)
from repro.bitmap import BitmapIndex, BitmapScheme, BitmapType, design_bitmap_scheme
from repro.costmodel import IOCostModel, WorkloadEvaluation, resolve_prefetch_setting
from repro.allocation import (
    Allocation,
    choose_allocation,
    greedy_size_allocation,
    round_robin_allocation,
)
from repro.core import (
    AdvisorConfig,
    FragmentationCandidate,
    RankedCandidate,
    Recommendation,
)
from repro.engine import (
    CacheStore,
    EvaluationCache,
    EvaluationEngine,
    recommendation_fingerprint,
)
from repro.analysis import (
    compare_candidates,
    disk_access_profile,
    format_allocation_report,
    format_full_report,
    format_query_analysis,
    format_ranking_table,
)
from repro.simulation import DiskSimulator, instantiate_query
from repro.graph import (
    build_affinity_graph,
    build_schema_graph,
    dimension_ranking,
    suggest_fragmentation_dimensions,
)
from repro.tuning import (
    TuningStudy,
    architecture_study,
    bitmap_exclusion_study,
    disk_count_study,
    prefetch_study,
    skew_study,
    workload_weight_study,
)
from repro.io import (
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
from repro.api import (
    AdvisorSession,
    CancellationToken,
    CompareRequest,
    CompareResult,
    EngineOptions,
    EvaluateSpecRequest,
    EvaluateSpecResult,
    ProgressEvent,
    RecommendRequest,
    RecommendResult,
    SimulateRequest,
    SimulateResult,
    TuneRequest,
    TuneResult,
)
from repro.datasets import (
    apb1_query_mix,
    apb1_schema,
    retail_query_mix,
    retail_schema,
    synthetic_schema,
)

__version__ = "1.0.0"

__all__ = [
    # errors
    "WarlockError",
    "SchemaError",
    "WorkloadError",
    "FragmentationError",
    "AllocationError",
    "CostModelError",
    "BitmapError",
    "StorageError",
    "AdvisorError",
    "EvaluationCancelled",
    "SimulationError",
    "ReportError",
    # schema & skew
    "Level",
    "Dimension",
    "Measure",
    "FactTable",
    "StarSchema",
    "validate_schema",
    "SkewSpec",
    "ZipfDistribution",
    # storage
    "DiskParameters",
    "SystemParameters",
    "Architecture",
    "PrefetchPolicy",
    "PrefetchSetting",
    # workload
    "DimensionRestriction",
    "QueryClass",
    "QueryMix",
    # fragmentation
    "FragmentationAttribute",
    "FragmentationSpec",
    "FragmentationLayout",
    "build_layout",
    "enumerate_point_fragmentations",
    "count_point_fragmentations",
    # bitmaps
    "BitmapType",
    "BitmapIndex",
    "BitmapScheme",
    "design_bitmap_scheme",
    # cost model
    "IOCostModel",
    "WorkloadEvaluation",
    "resolve_prefetch_setting",
    # allocation
    "Allocation",
    "round_robin_allocation",
    "greedy_size_allocation",
    "choose_allocation",
    # advisor core
    "AdvisorConfig",
    "Recommendation",
    "FragmentationCandidate",
    "RankedCandidate",
    # evaluation engine
    "CacheStore",
    "EvaluationCache",
    "EvaluationEngine",
    "recommendation_fingerprint",
    # api: sessions, options, requests, progress
    "AdvisorSession",
    "EngineOptions",
    "ProgressEvent",
    "CancellationToken",
    "RecommendRequest",
    "EvaluateSpecRequest",
    "CompareRequest",
    "TuneRequest",
    "SimulateRequest",
    "RecommendResult",
    "EvaluateSpecResult",
    "CompareResult",
    "TuneResult",
    "SimulateResult",
    # analysis
    "format_ranking_table",
    "format_query_analysis",
    "format_allocation_report",
    "format_full_report",
    "compare_candidates",
    "disk_access_profile",
    # simulation
    "DiskSimulator",
    "instantiate_query",
    # graphs
    "build_schema_graph",
    "build_affinity_graph",
    "dimension_ranking",
    "suggest_fragmentation_dimensions",
    # tuning studies
    "TuningStudy",
    "disk_count_study",
    "architecture_study",
    "prefetch_study",
    "bitmap_exclusion_study",
    "skew_study",
    "workload_weight_study",
    # io / serialization
    "schema_to_dict",
    "schema_from_dict",
    "system_to_dict",
    "system_from_dict",
    "workload_to_list",
    "workload_from_list",
    "parse_config",
    "load_config_file",
    "candidate_to_dict",
    "recommendation_to_dict",
    # datasets
    "apb1_schema",
    "apb1_query_mix",
    "retail_schema",
    "retail_query_mix",
    "synthetic_schema",
    "__version__",
]
