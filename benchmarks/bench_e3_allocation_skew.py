"""E3 — Allocation schemes under data skew (§2, §3.3).

Regenerates the disk-occupancy comparison between the logical round-robin and
the greedy size-based allocation across Zipf skew levels, plus the per-query
disk access balance, on the winning APB-1-style fragmentation.  The paper's
claim: round-robin suffices without skew; under notable skew the greedy scheme
keeps disk occupancy balanced.
"""

from __future__ import annotations

from repro import (
    AdvisorSession,
    FragmentationSpec,
    apb1_schema,
    build_layout,
    design_bitmap_scheme,
    greedy_size_allocation,
    round_robin_allocation,
)
from repro.allocation import choose_allocation

from conftest import APB_SCALE, print_table

THETAS = (0.0, 0.5, 1.0)
SPEC = FragmentationSpec.of(("product", "group"), ("time", "month"))


def run_e3(apb_workload, apb_system):
    """Occupancy statistics of both schemes for each skew level."""
    rows = []
    for theta in THETAS:
        schema = apb1_schema(scale=APB_SCALE, skew={"product": theta})
        scheme = design_bitmap_scheme(schema, apb_workload)
        layout = build_layout(schema, SPEC, page_size_bytes=apb_system.page_size_bytes)
        round_robin = round_robin_allocation(layout, apb_system, scheme)
        greedy = greedy_size_allocation(layout, apb_system, scheme)
        chosen = choose_allocation(layout, apb_system, scheme)
        rows.append(
            {
                "theta": theta,
                "fragment_cv": layout.fragment_size_cv,
                "rr_cv": round_robin.occupancy_cv,
                "rr_imbalance": round_robin.occupancy_imbalance,
                "greedy_cv": greedy.occupancy_cv,
                "greedy_imbalance": greedy.occupancy_imbalance,
                "chosen": chosen.scheme,
            }
        )
    return rows


def test_e3_allocation_under_skew(benchmark, apb_workload, apb_system):
    rows = benchmark.pedantic(
        run_e3, args=(apb_workload, apb_system), iterations=1, rounds=1
    )

    print_table(
        "E3: disk occupancy balance, round-robin vs. greedy size-based "
        f"({SPEC.label}, 64 disks)",
        ["zipf theta", "fragment size CV", "RR occupancy CV", "RR max/mean",
         "greedy occupancy CV", "greedy max/mean", "WARLOCK picks"],
        [
            [
                f"{row['theta']:.1f}",
                f"{row['fragment_cv']:.3f}",
                f"{row['rr_cv']:.4f}",
                f"{row['rr_imbalance']:.3f}",
                f"{row['greedy_cv']:.4f}",
                f"{row['greedy_imbalance']:.3f}",
                row["chosen"],
            ]
            for row in rows
        ],
    )

    no_skew, mid_skew, heavy_skew = rows
    # Without skew, round-robin is already balanced and is the scheme chosen.
    assert no_skew["rr_cv"] < 0.01
    assert no_skew["chosen"] == "round_robin"
    # Skew makes fragment sizes (and thus round-robin occupancy) progressively
    # more uneven ...
    assert no_skew["fragment_cv"] < mid_skew["fragment_cv"] < heavy_skew["fragment_cv"]
    assert heavy_skew["rr_cv"] > no_skew["rr_cv"]
    # ... while the greedy scheme keeps occupancy balanced and is selected.
    assert heavy_skew["greedy_cv"] < heavy_skew["rr_cv"]
    assert heavy_skew["greedy_imbalance"] < heavy_skew["rr_imbalance"]
    assert heavy_skew["chosen"] == "greedy_size"
    assert heavy_skew["greedy_imbalance"] < 1.2


def test_e3_access_balance_follows_occupancy(benchmark, apb_workload, apb_system):
    """Per-query disk access distribution: greedy keeps the hottest disk close to the mean."""
    from repro.analysis import disk_access_profile
    from repro.core import AdvisorConfig

    schema = apb1_schema(scale=APB_SCALE, skew={"product": 1.0})
    advisor = AdvisorSession(
        schema, apb_workload, apb_system, AdvisorConfig(max_fragments=100_000)
    )
    candidate = benchmark.pedantic(advisor.evaluate_spec, args=(SPEC,), iterations=1, rounds=1)

    rows = []
    for query_class in apb_workload:
        profile = disk_access_profile(candidate, query_class, samples=5, seed=0)
        rows.append(
            [query_class.name, f"{profile.total_pages:,.0f}",
             f"{profile.disks_touched}/{profile.num_disks}", f"{profile.max_over_mean:.2f}"]
        )
    print_table(
        "E3b: disk access profile per query class (greedy allocation, theta = 1.0)",
        ["query class", "pages/query", "disks touched", "hottest/mean"],
        rows,
    )
    assert candidate.allocation.scheme == "greedy_size"
    assert candidate.allocation.occupancy_imbalance < 1.25
