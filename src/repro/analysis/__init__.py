"""Analysis and output layer (§3.3 of the paper).

Renders the ranked candidate list, the detailed per-query-class statistics
(database statistic, I/O access statistic, I/O response times and prefetch
suggestion — the content of the paper's Fig. 2), the physical allocation scheme
with its disk occupancy and access distribution, and candidate comparisons for
interactive fine-tuning.
"""

from repro.analysis.stats import (
    DatabaseStatistics,
    QueryClassStatistics,
    build_database_statistics,
    build_query_statistics,
)
from repro.analysis.report import (
    format_allocation_report,
    format_full_report,
    format_query_analysis,
    format_ranking_table,
    format_table,
)
from repro.analysis.profile import DiskAccessProfile, disk_access_profile
from repro.analysis.compare import compare_candidates
from repro.analysis.charts import (
    access_profile_chart,
    bar_chart,
    occupancy_chart,
    tradeoff_chart,
)

__all__ = [
    "DatabaseStatistics",
    "QueryClassStatistics",
    "build_database_statistics",
    "build_query_statistics",
    "format_table",
    "format_ranking_table",
    "format_query_analysis",
    "format_allocation_report",
    "format_full_report",
    "DiskAccessProfile",
    "disk_access_profile",
    "compare_candidates",
    "bar_chart",
    "occupancy_chart",
    "access_profile_chart",
    "tradeoff_chart",
]
