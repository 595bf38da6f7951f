#!/usr/bin/env python3
"""Quickstart: recommend a disk allocation for an APB-1-style warehouse.

This is the minimal end-to-end use of the library — the programmatic
counterpart of walking through the WARLOCK demo once:

1. describe the star schema, the DBS & disk parameters and the query mix
   (input layer),
2. run the advisor (prediction layer),
3. print the ranked fragmentation candidates and the detailed analysis of the
   winner (analysis/output layer).

Run with::

    python examples/quickstart.py
"""

from repro import (
    AdvisorConfig,
    AdvisorSession,
    SystemParameters,
    apb1_query_mix,
    apb1_schema,
    format_allocation_report,
    format_query_analysis,
)


def main() -> None:
    # --- input layer ---------------------------------------------------------
    schema = apb1_schema(scale=0.1)          # ~2.5 M fact rows
    workload = apb1_query_mix()              # 8 weighted star-query classes
    system = SystemParameters(num_disks=64)  # 64 disks, 8 KB pages, auto prefetch

    print(schema.describe())
    print()
    print(workload.describe())
    print()
    print(f"System: {system.describe()}")
    print()

    # --- prediction layer ------------------------------------------------------
    advisor = AdvisorSession(
        schema,
        workload,
        system,
        AdvisorConfig(top_candidates=10, max_fragments=100_000),
    )
    recommendation = advisor.recommend().recommendation

    # --- analysis / output layer --------------------------------------------------
    print(recommendation.describe())
    print()
    print(format_query_analysis(recommendation.best, advisor.workload))
    print()
    print(format_allocation_report(recommendation.best))


if __name__ == "__main__":
    main()
