"""E4 — MDHF dimensionality: confinement of star-query work (§2, ref. [5]).

Regenerates the comparison of one-, two- and three-dimensional fragmentations
against the unfragmented baseline.  The paper's claim (carried over from the
MDHF paper [5]): multi-dimensional hierarchical fragmentation confines star
query work to a subset of the fragments whenever *at least one* fragmentation
dimension is referenced, so adding fragmentation dimensions that the workload
references increases the share of the workload that benefits, reduces the data
volume read per query, and improves response times over the unfragmented
layout.

The experiment uses a larger APB-1 scale than the other benchmarks so that even
the three-dimensional fragmentation keeps fragment sizes above the prefetching
granule — exactly the regime WARLOCK's thresholds would admit.
"""

from __future__ import annotations

import pytest

from repro import AdvisorSession, FragmentationSpec, apb1_schema, design_bitmap_scheme
from repro.core import AdvisorConfig

from conftest import print_table

#: Scale used by this experiment (~5 M fact rows, ~39 000 fact pages).
E4_SCALE = 0.2

SPECS = {
    "unfragmented": FragmentationSpec.none(),
    "1-D: time.month": FragmentationSpec.of(("time", "month")),
    "2-D: time.month x product.line": FragmentationSpec.of(
        ("time", "month"), ("product", "line")
    ),
    "3-D: time.month x product.line x channel.channel": FragmentationSpec.of(
        ("time", "month"), ("product", "line"), ("channel", "channel")
    ),
}


@pytest.fixture(scope="module")
def e4_schema():
    return apb1_schema(scale=E4_SCALE)


def run_e4(schema, apb_workload, apb_system):
    """Evaluate each fragmentation dimensionality over the query mix."""
    config = AdvisorConfig(max_fragments=200_000, include_baseline=True)
    advisor = AdvisorSession(schema, apb_workload, apb_system, config)
    scheme = design_bitmap_scheme(schema, apb_workload)
    return {label: advisor.evaluate_spec(spec, scheme) for label, spec in SPECS.items()}


def test_e4_mdhf_dimensionality(benchmark, e4_schema, apb_workload, apb_system):
    candidates = benchmark.pedantic(
        run_e4, args=(e4_schema, apb_workload, apb_system), iterations=1, rounds=1
    )

    shares = apb_workload.shares()
    rows = []
    confined_share = {}
    for label, candidate in candidates.items():
        # Workload share for which the fragmentation confines access to <50% of
        # the fragments ("the query benefits from the fragmentation").
        benefit = sum(
            shares[cost.query_name]
            for cost in candidate.evaluation.per_class
            if cost.profile.fragment_hit_ratio < 0.5
        )
        confined_share[label] = benefit
        rows.append(
            [
                label,
                f"{candidate.fragment_count:,}",
                f"{candidate.layout.average_fragment_pages:,.0f}",
                f"{benefit:.0%}",
                f"{candidate.pages_accessed:,.0f}",
                f"{candidate.io_cost_ms:,.0f}",
                f"{candidate.response_time_ms:,.0f}",
            ]
        )
    print_table(
        "E4: effect of fragmentation dimensionality (APB-1-style mix, 64 disks, scale 0.2)",
        ["fragmentation", "fragments", "avg frag pages", "workload confined",
         "pages/query", "I/O cost [ms]", "response [ms]"],
        rows,
    )

    base = candidates["unfragmented"]
    one_d = candidates["1-D: time.month"]
    two_d = candidates["2-D: time.month x product.line"]
    three_d = candidates["3-D: time.month x product.line x channel.channel"]

    # The unfragmented baseline confines nothing and has the worst response time.
    assert confined_share["unfragmented"] == 0.0
    assert base.response_time_ms > one_d.response_time_ms
    assert base.response_time_ms > two_d.response_time_ms
    # Confinement grows (weakly) with every added fragmentation dimension the
    # workload references.
    assert (
        confined_share["1-D: time.month"]
        <= confined_share["2-D: time.month x product.line"] + 1e-9
    )
    assert (
        confined_share["2-D: time.month x product.line"]
        <= confined_share["3-D: time.month x product.line x channel.channel"] + 1e-9
    )
    # With two fragmentation dimensions most of this workload is confined.
    assert confined_share["2-D: time.month x product.line"] >= 0.5
    # Fragmentation reduces the data volume read per query versus the baseline.
    assert two_d.pages_accessed < base.pages_accessed
    assert three_d.pages_accessed <= base.pages_accessed


def test_e4_queries_missing_all_fragmentation_dimensions_do_not_benefit(
    benchmark, e4_schema, apb_workload, apb_system
):
    """A query that references no fragmentation dimension touches every fragment."""
    config = AdvisorConfig(max_fragments=200_000)
    advisor = AdvisorSession(e4_schema, apb_workload, apb_system, config)
    scheme = design_bitmap_scheme(e4_schema, apb_workload)
    spec = FragmentationSpec.of(("customer", "retailer"))
    candidate = benchmark.pedantic(
        advisor.evaluate_spec, args=(spec, scheme), iterations=1, rounds=1
    )

    hit_ratios = {
        cost.query_name: cost.profile.fragment_hit_ratio
        for cost in candidate.evaluation.per_class
    }
    print()
    print("E4b: fragment hit ratio per class on customer.retailer fragmentation")
    for name, ratio in hit_ratios.items():
        print(f"  {name}: {ratio:.2f}")
    # Classes that do not restrict the customer dimension scan all fragments.
    assert hit_ratios["Q1-month-group"] == 1.0
    assert hit_ratios["Q8-year-report"] == 1.0
    # Classes restricting the customer dimension are confined.
    assert hit_ratios["Q2-quarter-retailer"] < 0.05
