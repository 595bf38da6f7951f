"""Shared fixtures and helpers for the experiment benchmarks.

Every benchmark regenerates one experiment of EXPERIMENTS.md (E1..E10): it
computes the experiment's table/series, prints it (so the numbers land in the
benchmark log), and asserts the qualitative shape the paper claims.  The
`benchmark` fixture times the computation of the headline artefact.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import pytest


def pytest_addoption(parser) -> None:
    parser.addoption(
        "--quick",
        action="store_true",
        default=False,
        help="run the benchmarks in smoke mode: smaller sweeps, shape "
        "assertions only, no hardware-dependent speedup thresholds "
        "(used by the CI benchmark smoke job)",
    )


@pytest.fixture(scope="session")
def quick(request) -> bool:
    """True when the run is a CI smoke pass (see --quick)."""
    return request.config.getoption("--quick")

from repro import (
    AdvisorConfig,
    AdvisorSession,
    QueryMix,
    StarSchema,
    SystemParameters,
    apb1_query_mix,
    apb1_schema,
)

#: Scale factor used by the APB-1-style experiments.  0.05 keeps every
#: benchmark comfortably under a few seconds while preserving the relative
#: behaviour (the cost model is analytical, so only candidate counts matter).
APB_SCALE = 0.05

#: Number of disks of the reference configuration.
APB_DISKS = 64


def print_table(title: str, headers: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    """Print an experiment table (delegates to the library's table renderer)."""
    from repro.analysis import format_table

    print()
    print(title)
    print(format_table(headers, [[str(cell) for cell in row] for row in rows]))


@pytest.fixture(scope="session")
def apb_schema() -> StarSchema:
    """The APB-1-style schema used by most experiments."""
    return apb1_schema(scale=APB_SCALE)


@pytest.fixture(scope="session")
def apb_skewed_schema() -> StarSchema:
    """The APB-1-style schema with a skewed product dimension (theta = 1.0)."""
    return apb1_schema(scale=APB_SCALE, skew={"product": 1.0})


@pytest.fixture(scope="session")
def apb_workload() -> QueryMix:
    """The APB-1-style weighted query mix."""
    return apb1_query_mix()


@pytest.fixture(scope="session")
def apb_system() -> SystemParameters:
    """The 64-disk Shared Disk reference configuration."""
    return SystemParameters(num_disks=APB_DISKS)


@pytest.fixture(scope="session")
def apb_config() -> AdvisorConfig:
    """Advisor configuration shared by the experiments."""
    return AdvisorConfig(top_candidates=10, max_fragments=100_000)


@pytest.fixture(scope="session")
def apb_recommendation(apb_schema, apb_workload, apb_system, apb_config):
    """The reference recommendation (E1) reused by downstream experiments."""
    advisor = AdvisorSession(apb_schema, apb_workload, apb_system, apb_config)
    return advisor.recommend().recommendation
