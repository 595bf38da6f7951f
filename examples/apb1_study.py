#!/usr/bin/env python3
"""Full APB-1 study: ranking, trade-off scatter, validation against the simulator.

Reproduces, for an APB-1-style configuration, the complete demonstration walk-
through of the paper:

* the ranked list of fragmentation candidates (two-phase heuristic),
* the I/O-cost vs. response-time trade-off of every evaluated candidate,
* the detailed query analysis of the top candidates,
* a Monte-Carlo replay of the workload against the recommended allocation, so
  the analytical predictions can be compared with simulated values.

Run with::

    python examples/apb1_study.py [--scale 0.1] [--disks 64]
"""

from __future__ import annotations

import argparse

from repro import (
    AdvisorConfig,
    AdvisorSession,
    DiskSimulator,
    SystemParameters,
    apb1_query_mix,
    apb1_schema,
    compare_candidates,
    format_query_analysis,
    format_ranking_table,
)


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.1, help="fact table scale factor")
    parser.add_argument("--disks", type=int, default=64, help="number of disks")
    parser.add_argument("--queries", type=int, default=10, help="simulated queries per class")
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    schema = apb1_schema(scale=args.scale)
    workload = apb1_query_mix()
    system = SystemParameters(num_disks=args.disks)
    advisor = AdvisorSession(
        schema, workload, system, AdvisorConfig(top_candidates=10, max_fragments=100_000)
    )

    recommendation = advisor.recommend().recommendation

    # 1. Ranked candidate list -------------------------------------------------
    print(format_ranking_table(recommendation))
    print()

    # 2. Trade-off scatter: every evaluated candidate ---------------------------
    print("I/O cost vs. response time over all evaluated candidates")
    print(f"{'fragmentation':55s} {'I/O cost [ms]':>14s} {'response [ms]':>14s}")
    for candidate in sorted(recommendation.evaluated, key=lambda c: c.io_cost_ms):
        print(
            f"{candidate.label:55s} {candidate.io_cost_ms:14,.0f} "
            f"{candidate.response_time_ms:14,.0f}"
        )
    print()

    # 3. Detailed analysis of the top-3 candidates --------------------------------
    top = [ranked.candidate for ranked in recommendation.ranked[:3]]
    print(compare_candidates(top, baseline=top[0]))
    print()
    print(format_query_analysis(recommendation.best, workload))
    print()

    # 4. Validation: analytical model vs. Monte-Carlo replay -----------------------
    best = recommendation.best
    simulator = DiskSimulator(system)
    simulated = simulator.run_workload(
        best.layout,
        workload,
        best.bitmap_scheme,
        best.allocation,
        best.prefetch,
        queries_per_class=args.queries,
        seed=0,
    )
    print("Validation of the analytical model against the replay simulator")
    print(simulated.describe())
    print(
        f"  analytical: response {best.response_time_ms:,.1f} ms, "
        f"I/O cost {best.io_cost_ms:,.1f} ms"
    )
    response_error = (
        abs(simulated.weighted_response_ms - best.response_time_ms)
        / max(simulated.weighted_response_ms, 1e-9)
    )
    busy_error = (
        abs(simulated.weighted_busy_ms - best.io_cost_ms)
        / max(simulated.weighted_busy_ms, 1e-9)
    )
    print(
        f"  relative deviation: response {response_error:.1%}, I/O cost {busy_error:.1%}"
    )


if __name__ == "__main__":
    main()
