"""Parity matrix: cold, warm, shared and uncached runs return identical results.

The evaluation engine promises that caching is invisible in the output: a
cold cache versus a warm one, a cache shared across sessions and no cache at
all change timings only, never numbers, on every scenario.  Identity is checked through
:func:`repro.engine.recommendation_fingerprint`, which canonicalizes every
float of every candidate (per-class costs, access profiles, allocation
vectors) at full ``repr`` precision — two equal fingerprints mean the
recommendations are bit-identical — plus direct equality spot checks on the
headline metrics.
"""

from __future__ import annotations

import pytest

from repro import (
    AdvisorConfig,
    AdvisorSession,
    EngineOptions,
    EvaluationCache,
    SystemParameters,
    apb1_query_mix,
    apb1_schema,
    recommendation_fingerprint,
    retail_query_mix,
    retail_schema,
    synthetic_schema,
)
from repro.engine import recommendation_state
from repro.workload.generator import random_query_mix


def _scenario(name):
    """(schema, workload, system, config) for a named parity scenario."""
    if name == "synthetic":
        schema = synthetic_schema(
            num_dimensions=4,
            levels_per_dimension=3,
            bottom_cardinality=300,
            fact_rows=2_000_000,
            seed=3,
        )
        workload = random_query_mix(schema, num_classes=6, seed=5)
        system = SystemParameters(num_disks=16)
        config = AdvisorConfig(max_fragments=20_000, top_candidates=8)
    elif name == "retail":
        schema = retail_schema(scale=0.05)
        workload = retail_query_mix()
        system = SystemParameters(num_disks=32)
        config = AdvisorConfig(max_fragments=50_000, top_candidates=8)
    elif name == "apb1":
        schema = apb1_schema(scale=0.02)
        workload = apb1_query_mix()
        system = SystemParameters(num_disks=64)
        config = AdvisorConfig(max_fragments=100_000, top_candidates=10)
    else:  # pragma: no cover - test bug
        raise ValueError(name)
    return schema, workload, system, config


SCENARIOS = ("synthetic", "retail", "apb1")


@pytest.mark.parametrize("scenario", SCENARIOS)
class TestSerialParallelParity:
    def test_cold_vs_warm_cache_is_bit_identical(self, scenario, swept_recommendation):
        schema, workload, system, config = _scenario(scenario)
        advisor = AdvisorSession(schema, workload, system, config)
        answer = advisor.recommend()
        cold = answer.recommendation
        cold_lookups = advisor.cache.stats.lookups
        # A repeated identical recommend() on the same session answers O(1)
        # from the cache's answer memo: zero additional cache probes.
        memoized = advisor.recommend().recommendation
        assert advisor.cache.stats.lookups == cold_lookups
        assert recommendation_fingerprint(cold) == recommendation_fingerprint(memoized)
        # A fresh advisor sharing the cache gets the same answer from the
        # memo, without a probe...
        warm_advisor = AdvisorSession(
            schema, workload, system, config, cache=advisor.cache
        )
        assert warm_advisor.recommend() is answer
        assert advisor.cache.stats.lookups == cold_lookups
        # ...and its sweep is answered warm.
        warm = swept_recommendation(warm_advisor)
        assert advisor.cache.stats.hits > 0
        assert advisor.cache.stats.lookups > cold_lookups
        assert recommendation_fingerprint(cold) == recommendation_fingerprint(warm)

    def test_shared_cache_across_advisors_is_bit_identical(
        self, scenario, swept_recommendation
    ):
        schema, workload, system, config = _scenario(scenario)
        cache = EvaluationCache()
        answer = AdvisorSession(schema, workload, system, config, cache=cache).recommend()
        first = answer.recommendation
        warm_advisor = AdvisorSession(schema, workload, system, config, cache=cache)
        lookups_before = cache.stats.lookups
        assert warm_advisor.recommend() is answer
        assert cache.stats.lookups == lookups_before
        hits_before = cache.stats.hits
        second = swept_recommendation(warm_advisor)
        assert cache.stats.hits > hits_before
        assert recommendation_fingerprint(first) == recommendation_fingerprint(second)

    def test_disabled_cache_is_bit_identical(self, scenario):
        schema, workload, system, config = _scenario(scenario)
        cached = AdvisorSession(schema, workload, system, config).recommend().recommendation
        uncached = AdvisorSession(
            schema, workload, system, config, options=EngineOptions(cache=False)
        ).recommend().recommendation
        assert recommendation_fingerprint(cached) == recommendation_fingerprint(uncached)


def test_parallel_sweep_populates_the_shared_cache(swept_recommendation):
    """A sweep's candidates AND structures land in the shared cache, and the
    sweep probes each candidate exactly once."""
    schema, workload, system, config = _scenario("synthetic")
    cache = EvaluationCache()
    first = AdvisorSession(
        schema, workload, system, config, cache=cache
    ).recommend().recommendation
    n = len(first.evaluated)
    # One probe per candidate: a second probe inside the chunk
    # evaluator would count 2n misses.
    stats = cache.stats
    assert (stats.candidate_misses, stats.candidate_hits) == (n, 0)
    assert len(cache._candidates) == n
    # Structures are cached too: studies varying the system reuse them.
    assert len(cache._structures) >= n
    cache.reset_stats()
    # A fresh advisor sharing the cache answers recommend() from the
    # cache's answer memo without probing at all...
    fresh = AdvisorSession(schema, workload, system, config, cache=cache)
    assert fresh.recommend().recommendation is first
    assert cache.stats.lookups == 0
    # ...and its fully warm sweep is answered without recomputation.
    warm = swept_recommendation(fresh)
    stats = cache.stats
    assert (stats.candidate_hits, stats.candidate_misses) == (n, 0)
    assert stats.misses == 0
    assert recommendation_fingerprint(first) == recommendation_fingerprint(warm)


def test_fingerprint_distinguishes_different_inputs():
    schema, workload, system, config = _scenario("synthetic")
    base = AdvisorSession(schema, workload, system, config).recommend().recommendation
    other_system = SystemParameters(num_disks=8)
    other = AdvisorSession(schema, workload, other_system, config).recommend().recommendation
    assert recommendation_fingerprint(base) != recommendation_fingerprint(other)


def test_recommendation_state_is_json_shaped():
    schema, workload, system, config = _scenario("synthetic")
    recommendation = AdvisorSession(schema, workload, system, config).recommend().recommendation
    state = recommendation_state(recommendation)
    assert state["ranked"]
    entry = state["ranked"][0]
    assert {"label", "io_cost_ms", "per_class", "allocation"} <= set(entry)
    # Full-precision floats are serialized as repr strings.
    assert isinstance(entry["io_cost_ms"], str)
