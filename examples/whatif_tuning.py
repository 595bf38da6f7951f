#!/usr/bin/env python3
"""What-if tuning session: affinity analysis plus systematic what-if studies.

This example reproduces, programmatically, the interactive fine-tuning session
the demonstration describes for a DBA who already has a recommendation and now
wants to understand *why* it looks the way it does and *how robust* it is:

1. rank the dimensions by workload affinity and compare the pre-selection with
   the dimensions the advisor's winner actually uses,
2. sweep the number of disks and compare Shared Everything vs. Shared Disk,
3. quantify the prefetch-granule sensitivity,
4. quantify the space/time effect of dropping the most expensive bitmap
   indexes,
5. check how a heavier reporting share would change the picture.

Run with::

    python examples/whatif_tuning.py [--dataset apb1|retail]
"""

from __future__ import annotations

import argparse

from repro import (
    AdvisorConfig,
    AdvisorSession,
    SystemParameters,
    apb1_query_mix,
    apb1_schema,
    architecture_study,
    bitmap_exclusion_study,
    dimension_ranking,
    disk_count_study,
    prefetch_study,
    retail_query_mix,
    retail_schema,
    suggest_fragmentation_dimensions,
    workload_weight_study,
)
from repro.analysis import format_table


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", choices=["apb1", "retail"], default="apb1")
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--disks", type=int, default=64)
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    if args.dataset == "apb1":
        schema, workload = apb1_schema(scale=args.scale), apb1_query_mix()
    else:
        schema, workload = retail_schema(scale=args.scale), retail_query_mix()
    system = SystemParameters(num_disks=args.disks)
    config = AdvisorConfig(max_fragments=100_000, top_candidates=5)

    advisor = AdvisorSession(schema, workload, system, config)
    recommendation = advisor.recommend().recommendation
    best = recommendation.best
    print(recommendation.describe())
    print()

    # 1. Affinity analysis ------------------------------------------------------
    print("Dimension affinity (workload share restricting each dimension):")
    print(
        format_table(
            ["dimension", "share"],
            [[name, f"{share:.1%}"] for name, share in dimension_ranking(schema, workload)],
        )
    )
    suggestion = suggest_fragmentation_dimensions(schema, workload, max_dimensions=3)
    winner_dimensions = list(best.spec.dimensions)
    print(f"\nPre-selected fragmentation dimensions: {', '.join(suggestion)}")
    print(f"Dimensions used by the advisor's winner: {', '.join(winner_dimensions)}")
    print()

    # 2. Disk sweep and architecture ----------------------------------------------
    print(disk_count_study(schema, workload, system, best.spec, config=config).format())
    print()
    print(architecture_study(schema, workload, system, best.spec, config=config).format())
    print()

    # 3. Prefetch sensitivity ---------------------------------------------------------
    print(prefetch_study(schema, workload, system, best.spec, config=config).format())
    print()

    # 4. Bitmap exclusion ---------------------------------------------------------------
    largest_indexes = sorted(
        best.bitmap_scheme,
        key=lambda index: index.storage_bits_per_row,
        reverse=True,
    )[:2]
    exclusions = [(), tuple((index.dimension, index.level) for index in largest_indexes)]
    print(
        bitmap_exclusion_study(
            schema, workload, system, best.spec, exclusions=exclusions, config=config
        ).format()
    )
    print()

    # 5. Workload shift ------------------------------------------------------------------
    heaviest = max(workload, key=lambda qc: qc.weight)
    print(
        workload_weight_study(
            schema,
            workload,
            system,
            best.spec,
            reweightings={f"{heaviest.name} x5": {heaviest.name: heaviest.weight * 5}},
            config=config,
        ).format()
    )


if __name__ == "__main__":
    main()
