"""The recommendation fingerprint's emitter against its reference text.

:func:`repro.engine.recommendation_fingerprint` writes the canonical text
from the candidates' columns without building it as a dict tree.  The
reference is the text ``json.dumps(recommendation_state(r), sort_keys=True)``
writes; the two digests must agree on every answer:

* the FULL warehouse's digests are pinned, uniform and skewed;
* a hypothesis property draws small warehouses and checks the batched,
  scalar, warm-from-store, memoized and ``with_delta`` answers;
* hand-built edge cases cover texts no drawn warehouse produces: signed
  zeros and fractions in a page vector, escaped class names, empty
  attribute lists and an empty exclusion report.
"""

from __future__ import annotations

import dataclasses
import json
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro import (
    AdvisorConfig,
    AdvisorSession,
    EngineOptions,
    QueryClass,
    QueryMix,
    SystemParameters,
    synthetic_schema,
)
from repro.allocation import Allocation
from repro.core.thresholds import ExclusionReport
from repro.costmodel import WorkloadEvaluation
from repro.engine import recommendation_fingerprint, recommendation_state, stable_digest
from repro.errors import AdvisorError
from repro.workload.generator import random_query_mix

from test_allocation_batch import _FULL_SKEW, _full_session

#: Digests of the FULL warehouse's answers (263 survivors, 64 disks).
FULL_UNIFORM_DIGEST = "bf262376ce1fbc781c06d42b00a856acea3b7842"
FULL_SKEW_DIGEST = "73927cc4b39a031419aa5cece63d644e898c7e82"


def reference_digest(recommendation) -> str:
    """The digest of the reference text (the dict tree, then ``json.dumps``)."""
    text = json.dumps(recommendation_state(recommendation), sort_keys=True)
    return stable_digest("Recommendation", text)


def assert_emitter_matches(recommendation) -> str:
    digest = recommendation_fingerprint(recommendation)
    assert digest == reference_digest(recommendation)
    return digest


class TestFullWarehouse:
    @pytest.mark.parametrize(
        "skew, expected",
        [(None, FULL_UNIFORM_DIGEST), (_FULL_SKEW, FULL_SKEW_DIGEST)],
        ids=["uniform", "skew"],
    )
    def test_digest_is_pinned(self, skew, expected):
        recommendation = _full_session(skew).recommend().recommendation
        assert assert_emitter_matches(recommendation) == expected


@st.composite
def _warehouses(draw):
    schema = synthetic_schema(
        num_dimensions=draw(st.integers(min_value=2, max_value=4)),
        levels_per_dimension=draw(st.integers(min_value=2, max_value=3)),
        bottom_cardinality=draw(st.sampled_from([60, 150, 400])),
        fact_rows=draw(st.sampled_from([200_000, 2_000_000, 20_000_000])),
        seed=draw(st.integers(min_value=0, max_value=50)),
    )
    workload = random_query_mix(
        schema,
        num_classes=draw(st.integers(min_value=1, max_value=6)),
        seed=draw(st.integers(min_value=0, max_value=50)),
    )
    skew = draw(st.sampled_from([None, {"dim0": 0.8}, {"dim0": 1.0, "dim1": 0.5}]))
    if skew:
        schema = schema.with_skew(skew)
    system = SystemParameters(num_disks=draw(st.sampled_from([1, 3, 8, 64])))
    return schema, workload, system


class TestEmitterEqualsReference:
    @settings(max_examples=15, deadline=None)
    @given(inputs=_warehouses(), disks=st.sampled_from([2, 5, 16]))
    def test_on_every_path(self, inputs, disks):
        schema, workload, system = inputs
        config = AdvisorConfig(max_fragments=20_000)
        with tempfile.TemporaryDirectory() as store:
            cold = AdvisorSession(
                schema, workload, system, config, options=EngineOptions(cache_dir=store)
            )
            try:
                batched = assert_emitter_matches(cold.recommend().recommendation)
            except AdvisorError:
                assume(False)  # the thresholds excluded every candidate
            cold.close()
            warm = AdvisorSession(
                schema, workload, system, config, options=EngineOptions(cache_dir=store)
            )
            assert assert_emitter_matches(warm.recommend().recommendation) == batched
            assert warm.cache.stats.disk_hits > 0
            warm.close()
        scalar = AdvisorSession(
            schema, workload, system, config, options=EngineOptions(vectorize=False)
        )
        assert assert_emitter_matches(scalar.recommend().recommendation) == batched
        base = AdvisorSession(schema, workload, system, config)
        answer = base.recommend()
        # The memo path: a fresh session sharing the cache, no probe.
        lookups = base.cache.stats.lookups
        fresh = AdvisorSession(schema, workload, system, config, cache=base.cache)
        assert fresh.recommend() is answer
        assert base.cache.stats.lookups == lookups
        assert assert_emitter_matches(answer.recommendation) == batched
        try:
            edited = base.with_delta(disks=disks).recommend().recommendation
        except AdvisorError:
            return  # the new disk count excluded every candidate
        assert_emitter_matches(edited)


def _small_recommendation(workload=None):
    schema = synthetic_schema(
        num_dimensions=3, levels_per_dimension=3, bottom_cardinality=150, fact_rows=2_000_000
    )
    if workload is None:
        workload = random_query_mix(schema, num_classes=4, seed=3)
    session = AdvisorSession(
        schema, workload, SystemParameters(num_disks=8), AdvisorConfig(max_fragments=20_000)
    )
    return session.recommend().recommendation


def _replace_candidate(recommendation, label, replacement):
    """The recommendation with candidate ``label`` replaced everywhere."""

    def swap(candidate):
        return replacement if candidate.label == label else candidate

    return dataclasses.replace(
        recommendation,
        evaluated=tuple(swap(candidate) for candidate in recommendation.evaluated),
        ranked=tuple(
            dataclasses.replace(ranked, candidate=swap(ranked.candidate))
            for ranked in recommendation.ranked
        ),
    )


class TestEdgeCases:
    def test_hand_built_page_vector(self):
        recommendation = _small_recommendation()
        candidate = recommendation.ranked[0].candidate
        count = candidate.fragment_count
        assert count >= 8
        pages = np.full(count, 7.0)
        pages[:4] = [0.0, -0.0, 2.5, 0.0]
        pages[-1] = 1e-300
        allocation = Allocation(
            layout=candidate.layout,
            system=candidate.allocation.system,
            disk_of_fragment=np.arange(count, dtype=np.int64) % 3,
            fragment_pages=pages,
            scheme="hand_built",
        )
        edited = _replace_candidate(
            recommendation,
            candidate.label,
            dataclasses.replace(candidate, allocation=allocation),
        )
        digest = assert_emitter_matches(edited)
        assert digest != recommendation_fingerprint(recommendation)
        # -0.0 and 0.0 are equal floats with different texts.
        signless_pages = pages.copy()
        signless_pages[1] = 0.0
        signless = _replace_candidate(
            recommendation,
            candidate.label,
            dataclasses.replace(
                candidate,
                allocation=dataclasses.replace(allocation, fragment_pages=signless_pages),
            ),
        )
        assert assert_emitter_matches(signless) != digest

    def test_escaped_query_class_names(self):
        schema = synthetic_schema(
            num_dimensions=3, levels_per_dimension=3, bottom_cardinality=150, fact_rows=2_000_000
        )
        names = ['quote " class', "back\\slash", "näive ∑ \U0001f600"]
        workload = QueryMix(
            [
                QueryClass(name=name, restrictions=query.restrictions, weight=query.weight)
                for name, query in zip(names, random_query_mix(schema, num_classes=3, seed=4))
            ]
        )
        assert_emitter_matches(_small_recommendation(workload))

    def test_empty_bitmap_attributes(self):
        recommendation = _small_recommendation()
        candidate = recommendation.evaluated[0]
        columns = candidate.evaluation.as_columns()
        bare = dataclasses.replace(columns, attributes_used=((),) * columns.num_classes)
        evaluation = WorkloadEvaluation(
            candidate.layout, candidate.evaluation.prefetch, columns=bare
        )
        edited = _replace_candidate(
            recommendation,
            candidate.label,
            dataclasses.replace(candidate, evaluation=evaluation),
        )
        assert assert_emitter_matches(edited) != recommendation_fingerprint(recommendation)

    def test_empty_exclusion_report(self):
        recommendation = _small_recommendation()
        report = ExclusionReport(considered=len(recommendation.evaluated))
        assert_emitter_matches(dataclasses.replace(recommendation, exclusion_report=report))

    def test_ranked_copy_of_an_evaluated_candidate(self):
        # A ranked entry holding an equal copy, not the evaluated object
        # itself, renders on its own and must give the same text.
        recommendation = _small_recommendation()
        copies = tuple(
            dataclasses.replace(ranked, candidate=dataclasses.replace(ranked.candidate))
            for ranked in recommendation.ranked
        )
        edited = dataclasses.replace(recommendation, ranked=copies)
        assert assert_emitter_matches(edited) == recommendation_fingerprint(recommendation)

    def test_scalar_path_records(self):
        # The scalar path's evaluations hold records, not columns.
        recommendation = _small_recommendation()
        candidate = recommendation.evaluated[-1]
        evaluation = WorkloadEvaluation(
            candidate.layout,
            candidate.evaluation.prefetch,
            per_class=candidate.evaluation.per_class,
        )
        edited = _replace_candidate(
            recommendation,
            candidate.label,
            dataclasses.replace(candidate, evaluation=evaluation),
        )
        assert assert_emitter_matches(edited) == recommendation_fingerprint(recommendation)
