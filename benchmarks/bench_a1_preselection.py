"""A1 (ablation) — Affinity-based pre-selection of fragmentation dimensions.

The advisor evaluates every point fragmentation that survives the thresholds.
The affinity graph (`repro.graph`) offers a cheaper pre-selection: restrict the
candidate space to fragmentations whose attributes come from the dimensions the
workload co-accesses most.  This ablation measures how much of the candidate
space the pre-selection removes and verifies that the advisor's winner is
preserved — i.e. the pre-selection is a safe accelerator for wide schemas, not
a different heuristic.
"""

from __future__ import annotations

from repro import AdvisorSession, suggest_fragmentation_dimensions
from repro.core import AdvisorConfig, rank_candidates

from conftest import print_table


def run_a1(apb_schema, apb_workload, apb_system):
    """Evaluate the full candidate space and the pre-selected subspace."""
    config = AdvisorConfig(top_candidates=5, max_fragments=100_000)
    advisor = AdvisorSession(apb_schema, apb_workload, apb_system, config)

    specs, report = advisor.generate_specs()
    bitmap_scheme = advisor.design_bitmaps()
    all_candidates = [advisor.evaluate_spec(spec, bitmap_scheme) for spec in specs]

    suggested = set(
        suggest_fragmentation_dimensions(apb_schema, apb_workload, max_dimensions=2)
    )
    restricted_specs = [
        spec for spec in specs if set(spec.dimensions) <= suggested
    ]
    restricted_candidates = [
        candidate
        for candidate, spec in zip(all_candidates, specs)
        if set(spec.dimensions) <= suggested
    ]
    return {
        "report": report,
        "suggested": suggested,
        "all_specs": specs,
        "restricted_specs": restricted_specs,
        "full_ranking": rank_candidates(all_candidates, top_fraction=0.25, top_candidates=5),
        "restricted_ranking": rank_candidates(
            restricted_candidates, top_fraction=0.25, top_candidates=5
        )
        if restricted_candidates
        else [],
    }


def test_a1_preselection(benchmark, apb_schema, apb_workload, apb_system):
    results = benchmark.pedantic(
        run_a1, args=(apb_schema, apb_workload, apb_system), iterations=1, rounds=1
    )

    full = results["full_ranking"]
    restricted = results["restricted_ranking"]
    print()
    print(
        f"A1: pre-selected dimensions {sorted(results['suggested'])}; candidate space "
        f"{len(results['all_specs'])} -> {len(results['restricted_specs'])} specs"
    )
    print_table(
        "A1: full-space vs. pre-selected-space ranking (top 3)",
        ["rank", "full space", "pre-selected space"],
        [
            [
                i + 1,
                full[i].label if i < len(full) else "-",
                restricted[i].label if i < len(restricted) else "-",
            ]
            for i in range(3)
        ],
    )

    # The pre-selection prunes a substantial part of the space ...
    assert len(results["restricted_specs"]) < len(results["all_specs"])
    assert len(results["restricted_specs"]) >= 1
    # ... while preserving the advisor's winner (the winner's dimensions are a
    # subset of the suggested ones, so it survives the restriction).
    assert restricted, "pre-selected space must not be empty"
    assert full[0].label == restricted[0].label
    # Every pre-selected candidate only uses suggested dimensions.
    for spec in results["restricted_specs"]:
        assert set(spec.dimensions) <= results["suggested"]
