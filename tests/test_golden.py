"""Golden-file end-to-end regression tests.

The advisor pipeline is deterministic: same schema, workload and system in —
same ranked recommendation out, bit for bit.  These tests pin that promise to
checked-in snapshots: the full ranked output of the APB-1 and retail reference
runs (candidate order, ranks, fragment counts, costs rounded to 6 decimals,
prefetch granules, allocation schemes) lives under ``tests/golden/`` and every
run must reproduce it exactly.  Any model change that moves a number — however
slightly — fails here first, which separates deliberate model changes (update
the snapshot, explain why) from accidental ones (fix the bug).

Regenerate after a *deliberate* model change with::

    PYTHONPATH=src python tests/test_golden.py --regenerate
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import (
    AdvisorConfig,
    AdvisorSession,
    EngineOptions,
    SystemParameters,
    apb1_query_mix,
    apb1_schema,
    retail_query_mix,
    retail_schema,
)

GOLDEN_DIR = Path(__file__).parent / "golden"

#: The pinned reference runs.  Fixed scales/disks; the advisor itself takes no
#: random seed — determinism is exactly what these tests assert.
SCENARIOS = {
    "apb1": dict(dataset="apb1", scale=0.05, disks=64, max_fragments=100_000, top=10),
    "retail": dict(dataset="retail", scale=0.1, disks=32, max_fragments=50_000, top=10),
}


def _inputs(scenario: dict):
    if scenario["dataset"] == "apb1":
        schema = apb1_schema(scale=scenario["scale"])
        workload = apb1_query_mix()
    else:
        schema = retail_schema(scale=scenario["scale"])
        workload = retail_query_mix()
    system = SystemParameters(num_disks=scenario["disks"])
    config = AdvisorConfig(
        top_candidates=scenario["top"], max_fragments=scenario["max_fragments"]
    )
    return schema, workload, system, config


def _advisor(scenario: dict, vectorize: bool = True) -> AdvisorSession:
    schema, workload, system, config = _inputs(scenario)
    return AdvisorSession(
        schema, workload, system, config, options=EngineOptions(vectorize=vectorize)
    )


def build_snapshot(scenario: dict, vectorize: bool = True) -> dict:
    """The golden payload of one reference run (all floats rounded to 6 dp)."""
    recommendation = _advisor(scenario, vectorize=vectorize).recommend().recommendation
    report = recommendation.exclusion_report
    return {
        "scenario": scenario,
        "candidate_space": {
            "considered": report.considered,
            "excluded": report.excluded_count,
            "evaluated": report.surviving_count,
        },
        "ranked": [
            {
                "final_rank": ranked.final_rank,
                "io_rank": ranked.io_rank,
                "label": ranked.label,
                "fragments": ranked.candidate.fragment_count,
                "io_cost_ms": round(ranked.io_cost_ms, 6),
                "response_time_ms": round(ranked.response_time_ms, 6),
                "pages_accessed": round(ranked.candidate.pages_accessed, 6),
                "io_requests": round(ranked.candidate.io_requests, 6),
                "prefetch_fact_pages": ranked.candidate.prefetch.fact_pages,
                "prefetch_bitmap_pages": ranked.candidate.prefetch.bitmap_pages,
                "allocation_scheme": ranked.candidate.allocation.scheme,
                "occupancy_cv": round(ranked.candidate.allocation.occupancy_cv, 6),
            }
            for ranked in recommendation.ranked
        ],
        "evaluated_labels": [c.label for c in recommendation.evaluated],
    }


def _golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}_recommendation.json"


@pytest.mark.parametrize(
    "vectorize", [True, False], ids=["candidate-axis", "scalar"]
)
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_recommendation_matches_golden_snapshot(name, vectorize):
    """Both cost paths (batched and the scalar oracle) must reproduce the
    pinned snapshot bit-for-bit."""
    path = _golden_path(name)
    assert path.exists(), (
        f"golden snapshot {path} missing; regenerate with "
        f"'PYTHONPATH=src python tests/test_golden.py --regenerate'"
    )
    expected = json.loads(path.read_text())
    actual = build_snapshot(SCENARIOS[name], vectorize=vectorize)
    assert actual == expected, (
        f"the {name} reference run no longer matches its golden snapshot; "
        f"if the model change is deliberate, regenerate with "
        f"'PYTHONPATH=src python tests/test_golden.py --regenerate' and "
        f"explain the delta in the commit"
    )


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_runs_are_reproducible_in_process(name):
    """Two in-process runs produce identical snapshots (no hidden state)."""
    assert build_snapshot(SCENARIOS[name]) == build_snapshot(SCENARIOS[name])


# ---------------------------------------------------------------------------
# Comparison golden: the rendered AdvisorSession.compare table is pinned too
# ---------------------------------------------------------------------------

def build_compare_specs_text() -> str:
    """The pinned comparison rendering: top-3 APB-1 specs vs baseline."""
    from repro.fragmentation import FragmentationSpec

    schema, workload, system, config = _inputs(SCENARIOS["apb1"])
    advisor = AdvisorSession(schema, workload, system, config)
    recommendation = advisor.recommend().recommendation
    specs = [ranked.candidate.spec for ranked in recommendation.ranked[:3]]
    return advisor.compare(specs, baseline_spec=FragmentationSpec.none()).table


def _compare_specs_path() -> Path:
    return GOLDEN_DIR / "apb1_compare_specs.txt"


def test_compare_specs_matches_golden_snapshot():
    path = _compare_specs_path()
    assert path.exists(), (
        f"golden snapshot {path} missing; regenerate with "
        f"'PYTHONPATH=src python tests/test_golden.py --regenerate'"
    )
    assert build_compare_specs_text() + "\n" == path.read_text(), (
        "the comparison rendering no longer matches its golden snapshot; "
        "if the change is deliberate, regenerate and explain the delta"
    )


def regenerate() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name, scenario in sorted(SCENARIOS.items()):
        path = _golden_path(name)
        path.write_text(json.dumps(build_snapshot(scenario), indent=2) + "\n")
        print(f"wrote {path}")
    _compare_specs_path().write_text(build_compare_specs_text() + "\n")
    print(f"wrote {_compare_specs_path()}")


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        regenerate()
    else:
        print(__doc__)
