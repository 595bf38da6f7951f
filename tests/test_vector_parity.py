"""Parity harness: the batched cost path equals the scalar oracle, bitwise.

The batched cost path (:mod:`repro.costmodel.batch`) promises to be the *same
model* as the scalar reference implementation — not an approximation.  This
module is the harness that proves it:

* hypothesis sweeps draw random schemas, workloads (including multi-value
  restrictions), fragmentation specs, bitmap-scheme exclusions, disk counts
  and prefetch settings, and assert **field-by-field equality** of
  ``AccessStructure``, ``QueryAccessProfile`` and ``QueryCost`` between the
  scalar oracle and the batched kernels — the single-candidate entry points
  and every candidate slice of a stacked chunk (floats compared with ``==``,
  i.e. bit-identical);
* whole-advisor checks assert identical recommendation fingerprints for the
  batched and the scalar path in cold-cache, warm-cache, uncached and
  warm-from-store modes;
* the store's columnar candidate records re-materialize candidates exactly.
"""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro import (
    AdvisorConfig,
    AdvisorSession,
    DimensionRestriction,
    EngineOptions,
    QueryClass,
    QueryMix,
    SystemParameters,
    recommendation_fingerprint,
    synthetic_schema,
)
from repro.bitmap import design_bitmap_scheme
from repro.costmodel import (
    AccessStructureBatch2D,
    IOCostModel,
    compute_access_structure,
    compute_access_structure_batch,
    compute_access_structure_batch_candidates,
    estimate_access,
    estimate_access_batch_candidates,
    evaluate_workload_batch,
    evaluate_workload_batch_candidates,
    resolve_prefetch_setting,
    resolve_prefetch_setting_batch,
    resolve_prefetch_settings_batch_candidates,
    workload_structures,
)
from repro.costmodel.model import _positioning_page_equivalent
from repro.engine import CandidateColumns, EvaluationCache
from repro.fragmentation import build_layout
from repro.storage import PrefetchSetting
from repro.workload import ClassMatrix
from repro.workload.generator import random_query_mix

MAX_FRAGMENTS = 30_000

PARITY_SETTINGS = settings(max_examples=25, deadline=None)


def _assert_fields_equal(scalar, batch, context: str) -> None:
    """Field-by-field equality of two frozen dataclass instances."""
    assert type(scalar) is type(batch)
    for field in dataclasses.fields(scalar):
        left = getattr(scalar, field.name)
        right = getattr(batch, field.name)
        assert left == right, (
            f"{context}: field {field.name!r} differs: {left!r} != {right!r}"
        )


def _scalar_oracle(layout, workload, scheme, system):
    """The scalar reference as the engine runs it: each class's structure
    derived once and handed to the prefetch resolution and the evaluation."""
    structures = workload_structures(layout, workload, scheme, validate=False)
    prefetch = resolve_prefetch_setting(
        layout, workload, scheme, system, structures=structures
    )
    model = IOCostModel(system)
    return prefetch, model.evaluate(layout, workload, scheme, prefetch, structures)


def _scalar_oracles(layout, workload, scheme, system):
    """The scalar reference handed its structures, and deriving its own."""
    evaluation = IOCostModel(system).evaluate(layout, workload, scheme)
    return (
        _scalar_oracle(layout, workload, scheme, system),
        (evaluation.prefetch, evaluation),
    )


def _assert_matches_oracle(prefetch, evaluation, oracle, context: str) -> None:
    """A batched (prefetch, evaluation) equals one scalar oracle answer."""
    expected_prefetch, expected = oracle
    assert prefetch == expected_prefetch, context
    assert len(expected.per_class) == len(evaluation.per_class), context
    for scalar_cost, batch_cost in zip(expected.per_class, evaluation.per_class):
        _assert_fields_equal(
            scalar_cost, batch_cost, f"{context}/{scalar_cost.query_name}"
        )
    assert expected.total_io_cost_ms == evaluation.total_io_cost_ms, context
    assert (
        expected.total_response_time_ms == evaluation.total_response_time_ms
    ), context


def _scenario(draw):
    """Draw one random (schema, workload, system, specs, scheme) scenario."""
    schema_seed = draw(st.integers(min_value=0, max_value=50))
    num_dimensions = draw(st.integers(min_value=3, max_value=5))
    skewed = draw(st.booleans())
    schema = synthetic_schema(
        num_dimensions=num_dimensions,
        levels_per_dimension=draw(st.integers(min_value=2, max_value=3)),
        bottom_cardinality=draw(st.sampled_from([60, 150, 400])),
        fact_rows=draw(st.sampled_from([200_000, 2_000_000, 20_000_000])),
        skew_thetas=[0.0, 0.8][: 2 if skewed else 1],
        seed=schema_seed,
    )
    workload = random_query_mix(
        schema,
        num_classes=draw(st.integers(min_value=2, max_value=8)),
        seed=draw(st.integers(min_value=0, max_value=50)),
    )
    # Widen some point restrictions into IN-lists so value_count > 1 paths
    # (encoded-bitmap reads, ancestor expectations) are exercised.
    widened = []
    for query in workload:
        restrictions = []
        for restriction in query.restrictions:
            cardinality = schema.level_cardinality(
                restriction.dimension, restriction.level
            )
            value_count = min(
                cardinality, draw(st.sampled_from([1, 1, 2, 5, 17]))
            )
            restrictions.append(
                DimensionRestriction(
                    restriction.dimension, restriction.level, value_count
                )
            )
        widened.append(
            QueryClass(
                name=query.name,
                restrictions=restrictions,
                weight=query.weight,
                fact_table=query.fact_table,
            )
        )
    workload = QueryMix(widened)

    fixed_prefetch = draw(st.booleans())
    system = SystemParameters(
        num_disks=draw(st.sampled_from([1, 8, 64])),
        architecture=draw(st.sampled_from(["shared_disk", "shared_everything"])),
        **(
            {
                "prefetch_pages_fact": draw(st.sampled_from([1, 4, 32])),
                "prefetch_pages_bitmap": draw(st.sampled_from([1, 8])),
            }
            if fixed_prefetch
            else {}
        ),
    )

    scheme = design_bitmap_scheme(schema, workload)
    if len(scheme) > 1 and draw(st.booleans()):
        # Exclude a random index so forced-full-scan residuals appear.
        keys = [(index.dimension, index.level) for index in scheme]
        scheme = scheme.without(draw(st.sampled_from(keys)))

    advisor = AdvisorSession(
        schema, workload, system, AdvisorConfig(max_fragments=MAX_FRAGMENTS)
    )
    try:
        specs, _ = advisor.generate_specs()
    except Exception:
        # Some drawn configurations exclude every candidate (tiny fact tables
        # on many disks); they exercise the thresholds, not the cost model.
        assume(False)
    spec = specs[draw(st.integers(min_value=0, max_value=len(specs) - 1))]
    return schema, workload, system, spec, scheme


class TestHypothesisSweep:
    """Random layouts/schemes/prefetch settings: single-candidate entry points
    == scalar, bitwise."""

    @PARITY_SETTINGS
    @given(data=st.data())
    def test_structures_profiles_and_costs_are_bit_identical(self, data):
        schema, workload, system, spec, scheme = _scenario(data.draw)
        layout = build_layout(
            schema,
            spec,
            page_size_bytes=system.page_size_bytes,
            max_fragments=MAX_FRAGMENTS,
        )
        matrix = ClassMatrix.compile(schema, workload, scheme)
        batch = compute_access_structure_batch(layout, matrix)
        ppe = _positioning_page_equivalent(system)

        # Access structures, field by field.
        for i, (query, _) in enumerate(workload.weighted_items()):
            scalar_structure = compute_access_structure(
                layout, query, scheme, validate=False
            )
            _assert_fields_equal(
                scalar_structure, batch.structure(0, i), f"{spec.label}/{query.name}"
            )

        # Prefetch resolution.
        scalar_prefetch = resolve_prefetch_setting(layout, workload, scheme, system)
        batch_prefetch = resolve_prefetch_setting_batch(batch, matrix, system)
        assert scalar_prefetch == batch_prefetch

        # Profiles under the resolved setting AND a drawn fixed setting.
        drawn_prefetch = PrefetchSetting.fixed(
            data.draw(st.sampled_from([1, 2, 16, 128])),
            data.draw(st.sampled_from([1, 4])),
        )
        for prefetch in (scalar_prefetch, drawn_prefetch):
            profile_batch = estimate_access_batch_candidates(
                batch,
                np.array([prefetch.fact_pages], dtype=np.float64),
                np.array([prefetch.bitmap_pages], dtype=np.float64),
                ppe,
            )
            for i, (query, _) in enumerate(workload.weighted_items()):
                scalar_profile = estimate_access(
                    layout,
                    query,
                    scheme,
                    prefetch,
                    positioning_page_equivalent=ppe,
                    validate=False,
                )
                _assert_fields_equal(
                    scalar_profile,
                    profile_batch.profile(0, i),
                    f"{spec.label}/{query.name}/prefetch={prefetch.fact_pages}",
                )

        # Full per-class cost records (QueryCost), field by field.
        model = IOCostModel(system)
        scalar_evaluation = model.evaluate(layout, workload, scheme, scalar_prefetch)
        batch_evaluation = evaluate_workload_batch(
            layout, batch, matrix, system, batch_prefetch
        )
        assert len(scalar_evaluation.per_class) == len(batch_evaluation.per_class)
        for scalar_cost, batch_cost in zip(
            scalar_evaluation.per_class, batch_evaluation.per_class
        ):
            _assert_fields_equal(
                scalar_cost, batch_cost, f"{spec.label}/{scalar_cost.query_name}"
            )
        assert (
            scalar_evaluation.total_io_cost_ms == batch_evaluation.total_io_cost_ms
        )
        assert (
            scalar_evaluation.total_response_time_ms
            == batch_evaluation.total_response_time_ms
        )


class TestCandidateAxisHypothesisSweep:
    """Random layout stacks: every candidate slice == the scalar oracle, bitwise."""

    @PARITY_SETTINGS
    @given(data=st.data())
    def test_stacked_kernels_are_bit_identical_per_candidate(self, data):
        schema, workload, system, _, scheme = _scenario(data.draw)
        advisor = AdvisorSession(
            schema, workload, system, AdvisorConfig(max_fragments=MAX_FRAGMENTS)
        )
        specs, _ = advisor.generate_specs()
        # The scenario's whole surviving spec list in one stack, mixing
        # fragmentation dimensions and dimensionalities.
        layouts = [
            build_layout(
                schema,
                member,
                page_size_bytes=system.page_size_bytes,
                max_fragments=MAX_FRAGMENTS,
            )
            for member in specs
        ]
        matrix = ClassMatrix.compile(schema, workload, scheme)
        stacked = compute_access_structure_batch_candidates(layouts, matrix)
        # The warm path: per-layout 1-row copies (what the structure cache
        # holds) re-stacked before the shared downstream kernels.
        slices = [stacked.candidate(k) for k in range(len(layouts))]
        restacked = AccessStructureBatch2D.stack(slices)
        _assert_stacks_equal(stacked, restacked)

        answers = {}
        for path, batch in (("cold", stacked), ("warm", restacked)):
            prefetches = resolve_prefetch_settings_batch_candidates(
                batch, matrix, system
            )
            evaluations = evaluate_workload_batch_candidates(
                layouts, batch, matrix, system, prefetches
            )
            answers[path] = list(zip(prefetches, evaluations))

        for k, layout in enumerate(layouts):
            # Access structures, field by field against the scalar oracle.
            for i, (query, _) in enumerate(workload.weighted_items()):
                scalar = compute_access_structure(layout, query, scheme, validate=False)
                for batch, row in ((stacked, k), (slices[k], 0)):
                    _assert_fields_equal(
                        scalar,
                        batch.structure(row, i),
                        f"{layout.spec.label}/{query.name}",
                    )
            # Prefetch and full per-class records: cold and warm batches
            # against the oracle handed its structures and deriving its own.
            for oracle_path, oracle in zip(
                ("handed", "derived"), _scalar_oracles(layout, workload, scheme, system)
            ):
                for path, answer in answers.items():
                    _assert_matches_oracle(
                        *answer[k],
                        oracle,
                        f"{layout.spec.label} {path} batch vs {oracle_path} oracle",
                    )


def _advisor_inputs():
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
    return schema, workload, system, config


class TestAdvisorParityMatrix:
    """Vectorized vs scalar across cache modes, via recommendation fingerprints."""

    def test_serial_cold(self):
        schema, workload, system, config = _advisor_inputs()
        vectorized = AdvisorSession(schema, workload, system, config).recommend().recommendation
        scalar = AdvisorSession(
            schema, workload, system, config, options=EngineOptions(vectorize=False)
        ).recommend().recommendation
        assert recommendation_fingerprint(vectorized) == recommendation_fingerprint(
            scalar
        )

    def test_warm_cache(self, swept_recommendation):
        schema, workload, system, config = _advisor_inputs()
        vectorized_advisor = AdvisorSession(schema, workload, system, config)
        scalar_advisor = AdvisorSession(
            schema, workload, system, config, options=EngineOptions(vectorize=False)
        )
        cold_v = vectorized_advisor.recommend().recommendation
        cold_s = scalar_advisor.recommend().recommendation
        # Fresh advisors sharing the caches answer recommend() from the
        # caches' answer memos without a probe; their sweeps run warm.
        warm_v_advisor = AdvisorSession(
            schema, workload, system, config, cache=vectorized_advisor.cache
        )
        warm_s_advisor = AdvisorSession(
            schema,
            workload,
            system,
            config,
            cache=scalar_advisor.cache,
            options=EngineOptions(vectorize=False),
        )
        caches = (vectorized_advisor.cache, scalar_advisor.cache)
        lookups = [cache.stats.lookups for cache in caches]
        assert warm_v_advisor.recommend().recommendation is cold_v
        assert warm_s_advisor.recommend().recommendation is cold_s
        assert [cache.stats.lookups for cache in caches] == lookups
        warm_v = swept_recommendation(warm_v_advisor)
        warm_s = swept_recommendation(warm_s_advisor)
        assert vectorized_advisor.cache.stats.hits > 0
        fingerprints = {
            recommendation_fingerprint(rec)
            for rec in (cold_v, cold_s, warm_v, warm_s)
        }
        assert len(fingerprints) == 1

    def test_uncached(self):
        schema, workload, system, config = _advisor_inputs()
        vectorized = AdvisorSession(
            schema, workload, system, config, options=EngineOptions(cache=False)
        ).recommend().recommendation
        scalar = AdvisorSession(
            schema,
            workload,
            system,
            config,
            options=EngineOptions(cache=False, vectorize=False),
        ).recommend().recommendation
        assert recommendation_fingerprint(vectorized) == recommendation_fingerprint(
            scalar
        )


class TestCandidateAxisParityMatrix:
    """One fingerprint across scalar/batched × cold/warm-from-store."""

    def test_modes_and_columnar_store_warmup_agree(self, tmp_path):
        schema, workload, system, config = _advisor_inputs()
        fingerprints = {}
        for mode in (False, True):
            store_dir = tmp_path / f"{mode}"
            cold = AdvisorSession(
                schema,
                workload,
                system,
                config,
                options=EngineOptions(vectorize=mode, cache_dir=str(store_dir)),
            ).recommend().recommendation
            # A separate advisor warm-starts from the columnar store.
            warm_advisor = AdvisorSession(
                schema,
                workload,
                system,
                config,
                options=EngineOptions(vectorize=mode, cache_dir=str(store_dir)),
            )
            warm = warm_advisor.recommend().recommendation
            assert warm_advisor.cache.stats.candidate_disk_hits > 0, (
                f"{mode}: warm run must answer from the columnar candidate store"
            )
            fingerprints[(mode, "cold")] = recommendation_fingerprint(cold)
            fingerprints[(mode, "warm")] = recommendation_fingerprint(warm)
        assert len(set(fingerprints.values())) == 1, fingerprints

    def test_group_evaluation_equals_per_spec_path_with_mixed_cache(self):
        """Chunked == per-spec evaluation == the scalar oracle, warm or cold."""
        from repro.engine import evaluate_specs_in_context

        schema, workload, system, config = _advisor_inputs()
        advisor = AdvisorSession(schema, workload, system, config)
        specs, _ = advisor.generate_specs()
        engine = advisor.engine
        context = engine.context(specs=specs)
        reference = [
            evaluate_specs_in_context(context, [index], None)[0]
            for index in range(len(specs))
        ]
        # Cold chunk evaluation, no cache.
        chunked = evaluate_specs_in_context(context, range(len(specs)), None)
        assert evaluate_specs_in_context(context, [], None) == []
        # Mixed-cache evaluation: pre-warm structure entries for every third
        # spec, so groups stack cached and fresh structures together.
        cache = EvaluationCache()
        matrix = context.class_matrix
        for index in range(0, len(specs), 3):
            layout = reference[index].layout
            cache.put_structure_batch(
                layout,
                matrix,
                compute_access_structure_batch(layout, matrix),
            )
        mixed = evaluate_specs_in_context(context, range(len(specs)), cache)
        for expected, cold, warm in zip(reference, chunked, mixed):
            # Both sides above run the batched kernels; the scalar oracle
            # (handed its structures and deriving its own) anchors them.
            for oracle_path, oracle in zip(
                ("handed", "derived"),
                _scalar_oracles(
                    expected.layout, workload, context.bitmap_scheme, system
                ),
            ):
                for path, other in (("per-spec", expected), ("cold", cold),
                                    ("mixed", warm)):
                    _assert_matches_oracle(
                        other.prefetch,
                        other.evaluation,
                        oracle,
                        f"{expected.label} {path} vs {oracle_path} oracle",
                    )
            for other in (cold, warm):
                assert other.label == expected.label
                assert other.io_cost_ms == expected.io_cost_ms
                assert other.response_time_ms == expected.response_time_ms


class TestCandidateColumnsRoundTrip:
    """The store's columnar candidate record re-materializes candidates exactly."""

    @pytest.fixture
    def engine_and_specs(self):
        schema, workload, system, config = _advisor_inputs()
        advisor = AdvisorSession(schema, workload, system, config)
        specs, _ = advisor.generate_specs()
        engine = advisor.engine
        specs = specs[:10]
        context = engine.context(specs=specs)
        return engine, specs, context

    def test_round_trip_is_exact(self, engine_and_specs):
        engine, specs, context = engine_and_specs
        candidates = engine.evaluate_specs(specs)
        restored = [
            CandidateColumns.from_candidate(candidate).materialize(context, spec)
            for candidate, spec in zip(candidates, specs)
        ]
        assert len(restored) == len(candidates)
        for rebuilt, original in zip(restored, candidates):
            assert rebuilt.label == original.label
            assert rebuilt.prefetch == original.prefetch
            assert rebuilt.io_cost_ms == original.io_cost_ms
            assert rebuilt.response_time_ms == original.response_time_ms
            assert (
                rebuilt.allocation.disk_of_fragment.tolist()
                == original.allocation.disk_of_fragment.tolist()
            )
            for rebuilt_cost, original_cost in zip(
                rebuilt.evaluation.per_class, original.evaluation.per_class
            ):
                _assert_fields_equal(
                    rebuilt_cost.profile, original_cost.profile, rebuilt.label
                )
                assert rebuilt_cost.io_cost_ms == original_cost.io_cost_ms
                assert (
                    rebuilt_cost.response_time_ms == original_cost.response_time_ms
                )
                assert rebuilt_cost.weight == original_cost.weight
                assert rebuilt_cost.disks_used == original_cost.disks_used


class TestColumnarEvaluation:
    """EvaluationColumns-backed WorkloadEvaluation: records, totals, pickling."""

    @pytest.fixture
    def evaluation(self):
        from repro.costmodel import (
            compute_access_structure_batch,
            evaluate_workload_batch,
            resolve_prefetch_setting_batch,
        )

        schema, workload, system, config = _advisor_inputs()
        advisor = AdvisorSession(schema, workload, system, config)
        specs, _ = advisor.generate_specs()
        scheme = advisor.design_bitmaps()
        matrix = ClassMatrix.compile(schema, workload, scheme)
        layout = build_layout(
            schema,
            specs[0],
            page_size_bytes=system.page_size_bytes,
            max_fragments=config.max_fragments,
        )
        structures = compute_access_structure_batch(layout, matrix)
        prefetch = resolve_prefetch_setting_batch(structures, matrix, system)
        return evaluate_workload_batch(layout, structures, matrix, system, prefetch)

    def test_vectorized_evaluations_are_columnar_and_lazy(self, evaluation):
        assert evaluation.columns is not None
        assert evaluation._per_class is None
        # Totals come straight off the columns...
        total = evaluation.total_io_cost_ms
        assert evaluation._per_class is None
        # ...and equal the record-derived sums bit for bit.
        assert total == sum(c.weighted_io_cost_ms for c in evaluation.per_class)

    def test_columnar_pickle_round_trip_stays_columnar(self, evaluation):
        clone = pickle.loads(pickle.dumps(evaluation))
        assert clone.columns is not None
        assert clone.per_class == evaluation.per_class
        assert clone == evaluation

    def test_from_records_round_trips(self, evaluation):
        from repro.costmodel import EvaluationColumns, WorkloadEvaluation

        columns = EvaluationColumns.from_records(
            evaluation.per_class, evaluation.layout.fragment_count
        )
        rebuilt = WorkloadEvaluation(
            layout=evaluation.layout, prefetch=evaluation.prefetch, columns=columns
        )
        assert rebuilt.per_class == evaluation.per_class
        assert rebuilt.total_response_time_ms == evaluation.total_response_time_ms

    def test_requires_exactly_one_backing(self, evaluation):
        from repro.costmodel import WorkloadEvaluation
        from repro.errors import CostModelError

        with pytest.raises(CostModelError):
            WorkloadEvaluation(evaluation.layout, evaluation.prefetch)
        with pytest.raises(CostModelError):
            WorkloadEvaluation(
                evaluation.layout,
                evaluation.prefetch,
                per_class=evaluation.per_class,
                columns=evaluation.columns,
            )


def _assert_stack_equals_one_row_stacks(layouts, matrix) -> None:
    """A stack of ``layouts`` equals their 1-row stacks, field by field."""
    _assert_stacks_equal(
        compute_access_structure_batch_candidates(layouts, matrix),
        AccessStructureBatch2D.stack(
            [
                compute_access_structure_batch_candidates([layout], matrix).candidate(0)
                for layout in layouts
            ]
        ),
    )


def _assert_stacks_equal(stacked, restacked) -> None:
    """Two structure stacks are equal, field by field, dtypes and shapes too."""
    for field in dataclasses.fields(stacked):
        ours = getattr(stacked, field.name)
        theirs = getattr(restacked, field.name)
        if isinstance(ours, np.ndarray):
            assert ours.dtype == theirs.dtype, field.name
            assert ours.shape == theirs.shape, field.name
            assert np.array_equal(ours, theirs), field.name
        else:
            assert ours == theirs, field.name


class TestCandidateAxisGuards:
    """Error branches and slice helpers of the candidate-axis kernels."""

    def _layouts(self):
        schema, workload, system, config = _advisor_inputs()
        advisor = AdvisorSession(schema, workload, system, config)
        specs, _ = advisor.generate_specs()
        scheme = advisor.design_bitmaps()
        matrix = ClassMatrix.compile(schema, workload, scheme)
        layouts = [
            build_layout(
                schema,
                spec,
                page_size_bytes=system.page_size_bytes,
                max_fragments=config.max_fragments,
            )
            for spec in specs
        ]
        return layouts, matrix, system, workload, scheme

    def test_mixed_stack_equals_one_row_stacks(self):
        """A stack mixing dimensions and dimensionalities == 1-row stacks."""
        layouts, matrix, *_ = self._layouts()
        assert len({layout.spec.dimensions for layout in layouts}) > 1
        assert len({layout.spec.dimensionality for layout in layouts}) > 1
        _assert_stack_equals_one_row_stacks(layouts, matrix)

    def test_stack_of_multi_row_stacks_equals_one_stack(self):
        """Stacks of several heights join into the stack of all their layouts."""
        layouts, matrix, *_ = self._layouts()
        cuts = [0, 3, 4, len(layouts) // 2, len(layouts)]
        assert len(layouts) > cuts[-2] > 4
        parts = [
            compute_access_structure_batch_candidates(layouts[lo:hi], matrix)
            for lo, hi in zip(cuts, cuts[1:])
        ]
        assert [part.num_candidates for part in parts[:2]] == [3, 1]
        whole = compute_access_structure_batch_candidates(layouts, matrix)
        _assert_stacks_equal(whole, AccessStructureBatch2D.stack(parts))
        # Mixed with 1-row copies, as a partially warm chunk stacks them.
        mixed = [parts[0].candidate(0), parts[0].candidate(1), parts[0].candidate(2)]
        _assert_stacks_equal(whole, AccessStructureBatch2D.stack(mixed + parts[1:]))

    def test_stack_mixing_page_sizes_or_fact_tables_is_rejected(self):
        from repro import FactTable
        from repro.errors import CostModelError

        layouts, matrix, *_ = self._layouts()
        first = layouts[0]
        other_page = build_layout(
            first.schema, first.spec, page_size_bytes=2 * first.page_size_bytes
        )
        with pytest.raises(CostModelError, match="page size"):
            compute_access_structure_batch_candidates([first, other_page], matrix)
        fact = first.fact
        other_fact = dataclasses.replace(
            first, fact=FactTable(
                name=fact.name + "_copy",
                dimension_names=fact.dimension_names,
                row_count=fact.row_count,
                row_size_bytes=fact.row_size_bytes,
            )
        )
        with pytest.raises(CostModelError, match="fact table"):
            compute_access_structure_batch_candidates([first, other_fact], matrix)

    def test_edge_stacks_equal_one_row_stacks(self):
        """One candidate; different axis counts; an axis no class restricts."""
        from repro.fragmentation import FragmentationSpec

        schema = synthetic_schema(
            num_dimensions=4, levels_per_dimension=3, bottom_cardinality=150
        )
        # The classes restrict dim0 and dim1 only: dim2 and dim3 are axes no
        # class restricts (absent from the class matrix entirely).
        workload = QueryMix(
            [
                QueryClass("fine", [DimensionRestriction("dim0", "d0_l2", 5)]),
                QueryClass(
                    "both",
                    [
                        DimensionRestriction("dim1", "d1_l0"),
                        DimensionRestriction("dim0", "d0_l1", 2),
                    ],
                ),
                QueryClass("scan", []),
            ]
        )
        scheme = design_bitmap_scheme(schema, workload)
        matrix = ClassMatrix.compile(schema, workload, scheme)
        assert "dim2" not in matrix.dimension_names
        specs = [
            FragmentationSpec.of(("dim2", "d2_l0")),
            FragmentationSpec.of(("dim0", "d0_l0"), ("dim2", "d2_l1")),
            FragmentationSpec.none(),
            FragmentationSpec.of(
                ("dim3", "d3_l0"), ("dim1", "d1_l1"), ("dim0", "d0_l2")
            ),
            FragmentationSpec.of(("dim1", "d1_l0")),
        ]
        layouts = [build_layout(schema, spec) for spec in specs]
        for stack in ([layouts[0]], [layouts[2]], layouts):
            _assert_stack_equals_one_row_stacks(stack, matrix)
        for layout in layouts:
            batch = compute_access_structure_batch(layout, matrix)
            for i, (query, _) in enumerate(workload.weighted_items()):
                _assert_fields_equal(
                    compute_access_structure(layout, query, scheme, validate=False),
                    batch.structure(0, i),
                    f"{layout.spec.label}/{query.name}",
                )

    def test_empty_stack_and_concat_are_rejected(self):
        from repro.errors import CostModelError

        with pytest.raises(CostModelError):
            AccessStructureBatch2D.stack([])
        _, matrix, *_ = self._layouts()
        with pytest.raises(CostModelError):
            compute_access_structure_batch_candidates([], matrix)

    def test_profile_slices_match_class_axis_profiles(self):
        """Every (candidate, class) profile of a stack == the scalar profile."""
        from repro.costmodel.model import _positioning_page_equivalent

        layouts, matrix, system, workload, scheme = self._layouts()
        stacked = compute_access_structure_batch_candidates(layouts, matrix)
        ppe = _positioning_page_equivalent(system)
        granules = np.full(len(layouts), 4.0)
        profiles = estimate_access_batch_candidates(stacked, granules, granules, ppe)
        for k, layout in enumerate(layouts):
            for i, (query, _) in enumerate(workload.weighted_items()):
                reference = estimate_access(
                    layout,
                    query,
                    scheme,
                    PrefetchSetting.fixed(4, 4),
                    positioning_page_equivalent=ppe,
                    validate=False,
                )
                _assert_fields_equal(
                    reference, profiles.profile(k, i), layout.spec.label
                )

    def test_batch_granule_selection_matches_scalar(self):
        from repro.storage import SystemParameters
        from repro.storage.prefetch import (
            optimal_prefetch_pages,
            optimal_prefetch_pages_batch,
        )
        from repro.errors import StorageError

        system = SystemParameters(num_disks=8)
        rng = np.random.default_rng(7)
        runs = rng.uniform(0.0, 600.0, size=(12, 5))
        runs[rng.random(runs.shape) < 0.3] = 0.0
        weights = (0.4, 0.1, 0.2, 0.2, 0.1)
        batch_weighted = optimal_prefetch_pages_batch(
            runs, system.disk, system.page_size_bytes, weights
        )
        batch_uniform = optimal_prefetch_pages_batch(
            runs, system.disk, system.page_size_bytes
        )
        for k in range(runs.shape[0]):
            assert batch_weighted[k] == optimal_prefetch_pages(
                runs[k].tolist(), system.disk, system.page_size_bytes, weights
            )
            positive = [r for r in runs[k].tolist() if r > 0]
            expected = (
                optimal_prefetch_pages(positive, system.disk, system.page_size_bytes)
                if positive
                else 1
            )
            assert batch_uniform[k] == expected
        with pytest.raises(StorageError):
            optimal_prefetch_pages_batch(
                runs[0], system.disk, system.page_size_bytes
            )
        with pytest.raises(StorageError):
            optimal_prefetch_pages_batch(
                -runs, system.disk, system.page_size_bytes
            )
