"""Analytical I/O cost model (prediction layer, §3.2; stands in for ref. [3]).

For every fragmentation candidate the model predicts

* the I/O *access cost* (device busy time — the throughput-oriented metric), and
* the I/O *response time* (elapsed time exploiting parallel disks),

for each query class of the workload and aggregated over the weighted mix.
The twofold metric feeds the advisor's ranking heuristic.
"""

from repro.costmodel.formulas import (
    cardenas_pages,
    expected_distinct_ancestors,
    pages_for_rows,
    yao_pages,
)
from repro.costmodel.access import (
    AccessStructure,
    QueryAccessProfile,
    compute_access_structure,
    estimate_access,
)
from repro.costmodel.model import (
    PROFILE_FLOAT_FIELDS,
    EvaluationColumns,
    IOCostModel,
    QueryCost,
    WorkloadEvaluation,
    prefetch_setting_from_runs,
    resolve_prefetch_setting,
    workload_structures,
)
from repro.costmodel.batch import (
    AccessProfileBatch2D,
    AccessStructureBatch2D,
    compute_access_structure_batch,
    compute_access_structure_batch_candidates,
    estimate_access_batch_candidates,
    evaluate_workload_batch,
    evaluate_workload_batch_candidates,
    resolve_prefetch_setting_batch,
    resolve_prefetch_settings_batch_candidates,
)

__all__ = [
    "yao_pages",
    "cardenas_pages",
    "pages_for_rows",
    "expected_distinct_ancestors",
    "AccessStructure",
    "QueryAccessProfile",
    "compute_access_structure",
    "estimate_access",
    "AccessProfileBatch2D",
    "AccessStructureBatch2D",
    "compute_access_structure_batch",
    "compute_access_structure_batch_candidates",
    "estimate_access_batch_candidates",
    "evaluate_workload_batch",
    "evaluate_workload_batch_candidates",
    "resolve_prefetch_setting_batch",
    "resolve_prefetch_settings_batch_candidates",
    "EvaluationColumns",
    "PROFILE_FLOAT_FIELDS",
    "IOCostModel",
    "QueryCost",
    "WorkloadEvaluation",
    "prefetch_setting_from_runs",
    "resolve_prefetch_setting",
    "workload_structures",
]
