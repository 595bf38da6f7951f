#!/usr/bin/env python3
"""Defining your own warehouse and fine-tuning the advisor interactively.

The demo invited attendants to "enter their own data warehouse schema and query
mix".  This example builds a telecom call-detail warehouse from scratch and
then walks through the interactive fine-tuning hooks the paper describes:

* re-weighting the query mix,
* excluding bitmap indexes to limit space,
* sweeping the number of disks,
* comparing Shared Everything and Shared Disk,
* overriding the prefetch granule.

Run with::

    python examples/custom_schema.py
"""

from __future__ import annotations

from repro import (
    AdvisorConfig,
    AdvisorSession,
    Dimension,
    DimensionRestriction,
    FactTable,
    Level,
    Measure,
    QueryClass,
    QueryMix,
    SkewSpec,
    StarSchema,
    SystemParameters,
    compare_candidates,
    design_bitmap_scheme,
)
from repro.analysis import format_table


def build_schema() -> StarSchema:
    """A telecom call-detail-record star schema."""
    time = Dimension(
        "time",
        [Level("year", 2), Level("month", 24), Level("day", 730)],
    )
    customer = Dimension(
        "customer",
        [Level("segment", 6), Level("region", 50), Level("customer", 100_000)],
        skew=SkewSpec(theta=0.6),  # heavy callers dominate
    )
    tariff = Dimension("tariff", [Level("plan_family", 5), Level("plan", 60)])
    cell = Dimension(
        "cell",
        [Level("area", 20), Level("cell", 2_000)],
        skew=SkewSpec(theta=0.4),
    )
    calls = FactTable(
        name="call_details",
        row_count=30_000_000,
        row_size_bytes=48,
        dimension_names=("time", "customer", "tariff", "cell"),
        measures=(Measure("duration_s", 4), Measure("charge", 8)),
    )
    return StarSchema("telecom", (time, customer, tariff, cell), (calls,))


def build_workload() -> QueryMix:
    """Reporting and fraud-analysis query classes."""
    return QueryMix(
        [
            QueryClass(
                "monthly-revenue-by-plan",
                [DimensionRestriction("time", "month"), DimensionRestriction("tariff", "plan")],
                weight=30,
            ),
            QueryClass(
                "daily-traffic-by-area",
                [DimensionRestriction("time", "day"), DimensionRestriction("cell", "area")],
                weight=20,
            ),
            QueryClass(
                "segment-trend",
                [DimensionRestriction("customer", "segment"), DimensionRestriction("time", "month")],
                weight=20,
            ),
            QueryClass(
                "fraud-single-customer",
                [DimensionRestriction("customer", "customer"), DimensionRestriction("time", "day")],
                weight=10,
            ),
            QueryClass(
                "yearly-rollup",
                [DimensionRestriction("time", "year")],
                weight=20,
            ),
        ]
    )


def main() -> None:
    schema = build_schema()
    workload = build_workload()
    system = SystemParameters(num_disks=48)
    config = AdvisorConfig(top_candidates=8, max_fragments=150_000)

    print(schema.describe())
    print()

    # --- baseline recommendation -----------------------------------------------
    advisor = AdvisorSession(schema, workload, system, config)
    recommendation = advisor.recommend().recommendation
    print(recommendation.describe())
    print()

    # --- fine-tuning 1: the DBA doubts the yearly roll-up matters ------------------
    light_rollups = workload.reweighted({"yearly-rollup": 2})
    tuned = AdvisorSession(schema, light_rollups, system, config).recommend().recommendation
    print("After down-weighting the yearly roll-up class:")
    print(tuned.describe())
    print()

    # --- fine-tuning 2: exclude the big customer bitmap to save space ----------------
    full_scheme = design_bitmap_scheme(schema, workload)
    slim_scheme = full_scheme.without(("customer", "customer"))
    spec = recommendation.best.spec
    with_bitmaps = advisor.evaluate_spec(spec, full_scheme)
    without_bitmaps = advisor.evaluate_spec(spec, slim_scheme)
    fact_rows = schema.fact_table().row_count
    print("Bitmap space vs. query cost (excluding the customer-level bitmap):")
    print(
        format_table(
            ["scheme", "bitmap pages", "I/O cost [ms]", "response [ms]"],
            [
                [
                    "all suggested bitmaps",
                    f"{full_scheme.storage_pages(fact_rows, system.page_size_bytes):,}",
                    f"{with_bitmaps.io_cost_ms:,.0f}",
                    f"{with_bitmaps.response_time_ms:,.0f}",
                ],
                [
                    "customer bitmap excluded",
                    f"{slim_scheme.storage_pages(fact_rows, system.page_size_bytes):,}",
                    f"{without_bitmaps.io_cost_ms:,.0f}",
                    f"{without_bitmaps.response_time_ms:,.0f}",
                ],
            ],
        )
    )
    print()

    # --- fine-tuning 3: disk sweep and architecture comparison -----------------------
    print("Response time of the recommended fragmentation vs. number of disks:")
    rows = []
    for disks in (16, 32, 48, 96, 192):
        swept = AdvisorSession(schema, workload, system.with_disks(disks), config)
        candidate = swept.evaluate_spec(spec)
        rows.append([f"{disks}", f"{candidate.response_time_ms:,.0f}", f"{candidate.io_cost_ms:,.0f}"])
    print(format_table(["disks", "response [ms]", "I/O cost [ms]"], rows))
    print()

    se_system = system.with_architecture("shared_everything")
    se_candidate = AdvisorSession(schema, workload, se_system, config).evaluate_spec(spec)
    sd_candidate = advisor.evaluate_spec(spec)
    print("Architecture comparison for the recommended fragmentation:")
    print(
        compare_candidates(
            [sd_candidate, se_candidate],
            baseline=sd_candidate,
        )
    )
    print()

    # --- fine-tuning 4: fixed vs. auto prefetch ------------------------------------------
    fixed_system = system.with_prefetch(fact=4, bitmap=1)
    fixed_candidate = AdvisorSession(schema, workload, fixed_system, config).evaluate_spec(spec)
    print("Prefetch granule: auto-optimized vs. fixed 4-page granule")
    print(
        format_table(
            ["prefetch", "fact pages", "bitmap pages", "response [ms]"],
            [
                [
                    "auto",
                    f"{sd_candidate.prefetch.fact_pages}",
                    f"{sd_candidate.prefetch.bitmap_pages}",
                    f"{sd_candidate.response_time_ms:,.0f}",
                ],
                [
                    "fixed (4 / 1)",
                    f"{fixed_candidate.prefetch.fact_pages}",
                    f"{fixed_candidate.prefetch.bitmap_pages}",
                    f"{fixed_candidate.response_time_ms:,.0f}",
                ],
            ],
        )
    )


if __name__ == "__main__":
    main()
