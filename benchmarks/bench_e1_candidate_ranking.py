"""E1 — Ranked list of fragmentation candidates (Fig. 1 prediction layer, §3.2).

Regenerates the advisor's headline output for the APB-1-style configuration:
the candidate space size, the number of candidates excluded by thresholds, and
the top fragmentations ranked by the twofold heuristic (overall I/O cost, then
response time among the leading X%).
"""

from __future__ import annotations

from repro import AdvisorConfig, AdvisorSession

from conftest import print_table


def run_e1(apb_schema, apb_workload, apb_system, apb_config):
    """Run the full advisor pipeline and return the recommendation."""
    advisor = AdvisorSession(apb_schema, apb_workload, apb_system, apb_config)
    return advisor.recommend().recommendation


def test_e1_candidate_ranking(benchmark, apb_schema, apb_workload, apb_system, apb_config):
    recommendation = benchmark.pedantic(
        run_e1,
        args=(apb_schema, apb_workload, apb_system, apb_config),
        iterations=1,
        rounds=1,
    )

    report = recommendation.exclusion_report
    print()
    print(
        f"E1: candidate space {report.considered} point fragmentations, "
        f"{report.excluded_count} excluded by thresholds, "
        f"{report.surviving_count} evaluated"
    )
    print_table(
        "E1: top fragmentation candidates (APB-1-style, 64 disks)",
        ["rank", "fragmentation", "fragments", "I/O cost [ms]", "response [ms]", "I/O rank", "allocation"],
        [
            [
                ranked.final_rank,
                ranked.candidate.label,
                f"{ranked.candidate.fragment_count:,}",
                f"{ranked.candidate.io_cost_ms:,.0f}",
                f"{ranked.candidate.response_time_ms:,.0f}",
                ranked.io_rank,
                ranked.candidate.allocation.scheme,
            ]
            for ranked in recommendation.ranked
        ],
    )

    # Shape assertions: thresholds prune most of the space, a ranked list of the
    # requested length exists, and it is ordered by response time.
    assert report.excluded_count > 0
    assert 1 <= len(recommendation.ranked) <= apb_config.top_candidates
    responses = [r.response_time_ms for r in recommendation.ranked]
    assert responses == sorted(responses)
    # The winner must use at least one dimension the workload restricts heavily.
    shares = apb_workload.dimension_access_shares()
    assert any(
        shares.get(attribute.dimension, 0) > 0.2
        for attribute in recommendation.best.spec.attributes
    )


def test_e1_two_phase_beats_pure_io_ranking_on_response_time(
    benchmark, apb_schema, apb_workload, apb_system
):
    """Ablation: the two-phase heuristic yields a better response time than
    picking the raw I/O-cost winner, at bounded extra I/O cost."""
    config = AdvisorConfig(top_candidates=10, max_fragments=100_000, top_fraction=0.25)
    advisor = AdvisorSession(apb_schema, apb_workload, apb_system, config)
    recommendation = benchmark.pedantic(
        advisor.recommend, iterations=1, rounds=1
    ).recommendation

    by_io = min(recommendation.evaluated, key=lambda c: c.io_cost_ms)
    winner = recommendation.best
    print()
    print(
        f"E1 ablation: I/O-cost winner {by_io.label} -> response "
        f"{by_io.response_time_ms:,.0f} ms; two-phase winner {winner.label} -> "
        f"response {winner.response_time_ms:,.0f} ms"
    )
    assert winner.response_time_ms <= by_io.response_time_ms
    # The leading-X% cut bounds how much extra I/O the response-time winner may cost.
    leading = sorted(c.io_cost_ms for c in recommendation.evaluated)
    cutoff_index = max(0, int(0.25 * len(leading)) - 1)
    assert winner.io_cost_ms <= leading[cutoff_index] * 1.0001
