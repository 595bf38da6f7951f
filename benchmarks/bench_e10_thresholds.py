"""E10 — Exclusion thresholds and the candidate space (§3.2).

Regenerates the candidate-space accounting: how many point fragmentations the
APB-1-style schema induces, and how many of them each exclusion threshold
removes as the thresholds are tightened or relaxed (minimum one fragment per
disk, maximum fragment count, minimum average fragment size relative to the
prefetch granule).
"""

from __future__ import annotations

from repro import AdvisorSession, count_point_fragmentations
from repro.core import AdvisorConfig

from conftest import print_table

MAX_FRAGMENT_SETTINGS = (2_000, 20_000, 100_000, 1_000_000)
MIN_FRAGMENT_PAGE_SETTINGS = (1, 8, 16, 32)


def run_e10(apb_schema, apb_workload, apb_system):
    """Candidate-space survival under different threshold settings."""
    from repro.errors import AdvisorError

    total = count_point_fragmentations(apb_schema)
    by_max_fragments = {}
    for max_fragments in MAX_FRAGMENT_SETTINGS:
        config = AdvisorConfig(max_fragments=max_fragments)
        advisor = AdvisorSession(apb_schema, apb_workload, apb_system, config)
        try:
            _, report = advisor.generate_specs()
            by_max_fragments[max_fragments] = report
        except AdvisorError:  # all candidates excluded
            by_max_fragments[max_fragments] = None
    by_min_pages = {}
    for min_pages in MIN_FRAGMENT_PAGE_SETTINGS:
        config = AdvisorConfig(max_fragments=1_000_000, min_fragment_pages=min_pages)
        advisor = AdvisorSession(apb_schema, apb_workload, apb_system, config)
        try:
            _, report = advisor.generate_specs()
            by_min_pages[min_pages] = report
        except AdvisorError:
            by_min_pages[min_pages] = None
    return total, by_max_fragments, by_min_pages


def test_e10_threshold_sweep(benchmark, apb_schema, apb_workload, apb_system):
    total, by_max_fragments, by_min_pages = benchmark.pedantic(
        run_e10, args=(apb_schema, apb_workload, apb_system), iterations=1, rounds=1
    )

    print()
    print(f"E10: {total} point fragmentations in the APB-1-style candidate space")
    print_table(
        "E10a: surviving candidates vs. maximum-fragment threshold",
        ["max fragments", "considered", "excluded", "surviving"],
        [
            [
                f"{max_fragments:,}",
                report.considered if report else total,
                report.excluded_count if report else total,
                report.surviving_count if report else 0,
            ]
            for max_fragments, report in by_max_fragments.items()
        ],
    )
    print_table(
        "E10b: surviving candidates vs. minimum average fragment size",
        ["min fragment pages", "considered", "excluded", "surviving"],
        [
            [
                f"{min_pages:,}",
                report.considered if report else total,
                report.excluded_count if report else total,
                report.surviving_count if report else 0,
            ]
            for min_pages, report in by_min_pages.items()
        ],
    )
    strict = by_min_pages[MIN_FRAGMENT_PAGE_SETTINGS[-1]]
    if strict is not None:
        print("E10c: violation histogram under the strictest size threshold:")
        for reason, count in strict.violation_histogram().items():
            print(f"  {count:4d} x {reason}")

    # The point-fragmentation space of the 4-dimensional APB-1 schema:
    # (6+1)*(2+1)*(3+1)*(1+1) - 1 = 167 candidates.
    assert total == 167
    # Relaxing the maximum-fragment threshold monotonically admits more candidates.
    survivors = [
        report.surviving_count if report else 0 for report in by_max_fragments.values()
    ]
    assert survivors == sorted(survivors)
    # Tightening the minimum-fragment-size threshold monotonically removes candidates.
    size_survivors = [
        report.surviving_count if report else 0 for report in by_min_pages.values()
    ]
    assert size_survivors == sorted(size_survivors, reverse=True)
    # The thresholds always leave a non-trivial but strongly pruned space at defaults.
    default_report = by_max_fragments[100_000]
    assert default_report is not None
    assert 0 < default_report.surviving_count < total


def test_e10_threshold_evaluation_is_cheap(benchmark, apb_schema, apb_workload, apb_system):
    """Threshold evaluation must stay much cheaper than full cost evaluation,
    because it prunes the space before layouts are materialized."""
    config = AdvisorConfig(max_fragments=100_000)
    advisor = AdvisorSession(apb_schema, apb_workload, apb_system, config)

    def generate():
        return advisor.generate_specs()

    surviving, report = benchmark(generate)
    print()
    print(
        f"E10d: thresholds pruned {report.excluded_count}/{report.considered} candidates "
        f"before cost evaluation"
    )
    assert len(surviving) == report.surviving_count
