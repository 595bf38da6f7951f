#!/usr/bin/env python3
"""Skewed retail warehouse: round-robin vs. greedy size-based allocation.

The retail schema ships with a strongly skewed item dimension (best-sellers
dominate the sales fact table).  This example shows the part of WARLOCK that
reacts to skew:

* fragment sizes become uneven once a skewed attribute is a fragmentation
  attribute,
* the logical round-robin allocation then leaves disks unevenly occupied,
* the greedy size-based scheme restores occupancy balance,
* the disk access profile per query class shows how the imbalance would hit
  individual queries.

Run with::

    python examples/retail_skew_allocation.py [--theta 0.8] [--disks 32]
"""

from __future__ import annotations

import argparse

from repro import (
    AdvisorSession,
    FragmentationSpec,
    SystemParameters,
    build_layout,
    design_bitmap_scheme,
    disk_access_profile,
    greedy_size_allocation,
    retail_query_mix,
    retail_schema,
    round_robin_allocation,
)
from repro.analysis import format_table
from repro.core import AdvisorConfig


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--theta", type=float, default=0.8, help="zipf theta of the item dimension")
    parser.add_argument("--scale", type=float, default=0.05, help="fact table scale factor")
    parser.add_argument("--disks", type=int, default=32, help="number of disks")
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    schema = retail_schema(scale=args.scale, item_skew_theta=args.theta)
    workload = retail_query_mix()
    system = SystemParameters(num_disks=args.disks)
    scheme = design_bitmap_scheme(schema, workload)

    # A fragmentation that includes the skewed item dimension (by category).
    spec = FragmentationSpec.of(("date", "month"), ("item", "category"))
    layout = build_layout(schema, spec)
    print(layout.describe())
    print()

    # --- occupancy balance of the two allocation schemes ----------------------
    round_robin = round_robin_allocation(layout, system, scheme)
    greedy = greedy_size_allocation(layout, system, scheme)
    rows = []
    for allocation in (round_robin, greedy):
        summary = allocation.occupancy_summary()
        rows.append(
            [
                allocation.scheme,
                f"{summary['total_pages']:,.0f}",
                f"{summary['min_occupancy_pages']:,.0f}",
                f"{summary['max_occupancy_pages']:,.0f}",
                f"{summary['occupancy_cv']:.4f}",
                f"{summary['occupancy_imbalance']:.3f}",
            ]
        )
    print("Disk occupancy under data skew (item dimension, zipf theta = %.2f)" % args.theta)
    print(
        format_table(
            ["allocation", "total pages", "min/disk", "max/disk", "CV", "max/mean"],
            rows,
        )
    )
    print()

    # --- per-query-class disk access profiles -----------------------------------
    advisor = AdvisorSession(schema, workload, system, AdvisorConfig(max_fragments=200_000))
    candidate = advisor.evaluate_spec(spec, scheme)
    print("Disk access profiles (greedy allocation) per query class")
    for query_class in workload:
        profile = disk_access_profile(candidate, query_class, samples=10, seed=0)
        print(f"  {profile.describe()}")
    print()

    # --- what WARLOCK itself would choose ------------------------------------------
    recommendation = advisor.recommend().recommendation
    print("WARLOCK's own recommendation for the retail warehouse:")
    print(recommendation.describe())


if __name__ == "__main__":
    main()
