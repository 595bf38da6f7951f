"""Shared fixtures for the test suite.

The fixtures provide a small, fast star schema ("toy"), a scaled-down APB-1
configuration, and matching workloads/system parameters so individual test
modules do not repeat schema construction.
"""

from __future__ import annotations

from collections import Counter, OrderedDict

import pytest

import repro.engine.executor as executor_module
from repro import (
    AdvisorConfig,
    AdvisorSession,
    Dimension,
    DimensionRestriction,
    FactTable,
    Level,
    Measure,
    QueryClass,
    QueryMix,
    Recommendation,
    SkewSpec,
    StarSchema,
    SystemParameters,
    apb1_query_mix,
    apb1_schema,
)
from repro.core import rank_candidates_columnar
from repro.storage import DiskParameters
from repro.workload import ClassMatrix

# WARLOCK_SANITIZE=1 runs the whole suite under the runtime concurrency
# sanitizer (see repro.lint.sanitizer): lock-discipline violations raise
# instead of racing silently.  A no-op when the variable is unset.
from repro.lint.sanitizer import install_from_env

install_from_env()


@pytest.fixture
def toy_schema() -> StarSchema:
    """A three-dimension star schema small enough for exhaustive checks."""
    time = Dimension(
        name="time",
        levels=[Level("year", 2), Level("quarter", 8), Level("month", 24)],
    )
    product = Dimension(
        name="product",
        levels=[Level("group", 10), Level("item", 200)],
        skew=SkewSpec(theta=0.0),
    )
    store = Dimension(
        name="store",
        levels=[Level("region", 4), Level("store", 40)],
    )
    fact = FactTable(
        name="sales",
        row_count=1_000_000,
        row_size_bytes=64,
        dimension_names=("time", "product", "store"),
        measures=(Measure("revenue", 8),),
    )
    return StarSchema(name="toy", dimensions=(time, product, store), fact_tables=(fact,))


@pytest.fixture
def skewed_schema() -> StarSchema:
    """The toy schema with a strongly skewed product dimension."""
    time = Dimension(
        name="time",
        levels=[Level("year", 2), Level("quarter", 8), Level("month", 24)],
    )
    product = Dimension(
        name="product",
        levels=[Level("group", 10), Level("item", 200)],
        skew=SkewSpec(theta=1.0),
    )
    store = Dimension(
        name="store",
        levels=[Level("region", 4), Level("store", 40)],
    )
    fact = FactTable(
        name="sales",
        row_count=1_000_000,
        row_size_bytes=64,
        dimension_names=("time", "product", "store"),
        measures=(Measure("revenue", 8),),
    )
    return StarSchema(
        name="toy-skewed", dimensions=(time, product, store), fact_tables=(fact,)
    )


@pytest.fixture
def toy_workload() -> QueryMix:
    """A four-class workload touching every dimension of the toy schema."""
    return QueryMix(
        [
            QueryClass(
                name="monthly-by-group",
                restrictions=[
                    DimensionRestriction("time", "month"),
                    DimensionRestriction("product", "group"),
                ],
                weight=4,
            ),
            QueryClass(
                name="quarterly-by-region",
                restrictions=[
                    DimensionRestriction("time", "quarter"),
                    DimensionRestriction("store", "region"),
                ],
                weight=3,
            ),
            QueryClass(
                name="item-tracking",
                restrictions=[
                    DimensionRestriction("product", "item"),
                    DimensionRestriction("time", "month"),
                ],
                weight=2,
            ),
            QueryClass(
                name="yearly-report",
                restrictions=[DimensionRestriction("time", "year")],
                weight=1,
            ),
        ]
    )


@pytest.fixture
def small_system() -> SystemParameters:
    """Eight disks, default disk characteristics."""
    return SystemParameters(num_disks=8)


@pytest.fixture
def tiny_disk_system() -> SystemParameters:
    """A system whose disks are deliberately tiny (capacity threshold tests)."""
    return SystemParameters(
        num_disks=4,
        disk=DiskParameters(capacity_gb=0.001),
    )


@pytest.fixture
def toy_advisor(toy_schema, toy_workload, small_system) -> AdvisorSession:
    """An advisor over the toy configuration with permissive thresholds."""
    config = AdvisorConfig(max_fragments=10_000, top_candidates=5)
    return AdvisorSession(toy_schema, toy_workload, small_system, config)


@pytest.fixture(scope="session")
def apb_small_schema() -> StarSchema:
    """A down-scaled APB-1 schema shared across integration tests."""
    return apb1_schema(scale=0.02)


@pytest.fixture(scope="session")
def apb_workload() -> QueryMix:
    """The APB-1-style query mix."""
    return apb1_query_mix()


@pytest.fixture
def swept_recommendation():
    """Rank a session's sweep past the cache's answer memo.

    A session whose cache already holds its answer returns it from
    ``recommend()`` without probing a candidate.  The returned function runs
    the same pipeline through the engine's sweep driver instead
    (``generate_specs``, ``engine.evaluate_specs``, the columnar ranking), so
    the cache's candidate entries answer, and probe counts and fingerprints
    can be checked on the warm sweep.
    """

    def sweep(session: AdvisorSession) -> Recommendation:
        specs, report = session.generate_specs()
        candidates = session.engine.evaluate_specs(specs)
        ranked = rank_candidates_columnar(
            candidates,
            top_fraction=session.config.top_fraction,
            top_candidates=session.config.top_candidates,
        )
        return Recommendation(
            ranked=tuple(ranked),
            evaluated=tuple(candidates),
            exclusion_report=report,
            config=session.config,
            schema=session.schema,
            workload=session.workload,
            system=session.system,
        )

    return sweep


@pytest.fixture
def compiled_inputs(monkeypatch):
    """An empty process memo of compiled inputs, for this test only.

    Engines memoize their workload validation, bitmap scheme and class
    matrix for the whole process (``repro.engine.executor``), so a test
    counting validations or compiles starts from this fixture; the memo the
    other tests share is put back afterwards.
    """
    memo: "OrderedDict" = OrderedDict()
    monkeypatch.setattr(executor_module, "_compiled_inputs", memo)
    return memo


@pytest.fixture
def compile_calls(monkeypatch, compiled_inputs):
    """Calls to the compiles the memo saves, counted from an empty memo.

    ``"validate"`` counts ``QueryClass.validate`` calls (one per class of a
    validated workload), ``"design"`` counts ``design_bitmap_scheme`` calls
    through the engine and ``"compile"`` counts ``ClassMatrix.compile``.
    """
    calls: Counter = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(QueryClass, "validate", counted("validate", QueryClass.validate))
    monkeypatch.setattr(
        executor_module,
        "design_bitmap_scheme",
        counted("design", executor_module.design_bitmap_scheme),
    )
    compile_matrix = vars(ClassMatrix)["compile"].__func__
    monkeypatch.setattr(ClassMatrix, "compile", classmethod(counted("compile", compile_matrix)))
    return calls
