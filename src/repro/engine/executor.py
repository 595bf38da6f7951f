"""The candidate-evaluation engine: batched, parallel, cache-aware.

:class:`EvaluationEngine` replaces the advisor's serial candidate loop.  It
expands the sweep into an :class:`~repro.engine.plan.EvaluationPlan`, executes
the per-candidate evaluations either inline (``jobs=1``) or on a process pool
(``jobs>1``), and returns the candidates in plan order.  Results are
**deterministic and identical across execution modes**: every evaluation is a
pure function of its inputs, workers return columnar
:class:`~repro.engine.result.CandidateResultBatch` chunks the parent
re-materializes by index — so ``jobs=4`` produces bit-identical
recommendations to ``jobs=1`` (the parity test matrix asserts this).

Two cost paths implement the same model (``EngineOptions.vectorize``):

* the **batched path** (``True``, default) groups each chunk by the specs'
  axis structure, stacks every group's layouts into one (candidate × class)
  numpy batch for structure derivation, and fuses the whole chunk — prefetch
  resolution and the cost model are elementwise per candidate — into a
  single kernel pass (:mod:`repro.costmodel.batch`); a single candidate
  (:meth:`EvaluationEngine.evaluate_spec`, the tuning studies) runs the same
  kernels as a 1-row stack;
* the **scalar path** (``False``, CLI ``--no-vectorize``) runs the per-class
  reference oracle.

Both are bit-identical by construction and by test
(``tests/test_vector_parity.py``); the scalar path remains the reference and
the escape hatch.

The process pool is created per sweep with an initializer that ships the
evaluation context (schema, workload, system, config, bitmap scheme, class
matrix, specs) once per worker rather than once per task; each worker owns a
private :class:`~repro.engine.cache.EvaluationCache`, so the run-length and
evaluation passes of a candidate share their access structures inside the
worker exactly as they do inline.  If the pool cannot be created (restricted
environments without working multiprocessing), the engine falls back to the
serial path — same results, just slower.
"""

from __future__ import annotations

import pickle
import sys
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.allocation import choose_allocation, choose_allocations_batch
from repro.bitmap import BitmapScheme, design_bitmap_scheme
from repro.core.candidates import FragmentationCandidate
from repro.core.config import AdvisorConfig
from repro.costmodel import (
    AccessStructureBatch2D,
    IOCostModel,
    compute_access_structure_batch,
    compute_access_structure_batch_candidates,
    evaluate_workload_batch,
    evaluate_workload_batch_candidates,
    resolve_prefetch_setting,
    resolve_prefetch_setting_batch,
    resolve_prefetch_settings_batch_candidates,
)
from repro.errors import AdvisorError, EvaluationCancelled, FabricError
from repro.fragmentation import FragmentationSpec, build_layout
from repro.schema import StarSchema
from repro.storage import SystemParameters
from repro.workload import ClassMatrix, QueryMix
from repro.engine.cache import EvaluationCache
from repro.engine.jobs import MIN_SPECS_FOR_PARALLEL, adaptive_jobs
from repro.engine.plan import EvaluationPlan
from repro.engine.result import CandidateResultBatch
from repro.engine.signature import object_signature, stable_digest

__all__ = [
    "EngineContext",
    "EvaluationEngine",
    "evaluate_spec_in_context",
    "evaluate_specs_in_context",
    "MIN_SPECS_FOR_PARALLEL",
]

#: Serial candidate-axis chunk cap: one axis-structure group is the natural
#: batching unit, but a sweep dominated by a single structure must still hit
#: progress/cancellation boundaries at a bounded latency.  16 candidates keeps
#: near-full batch width (the kernels saturate well below that) while staying
#: close to the one-candidate granularity of the non-batched serial path.
MAX_SERIAL_GROUP_CHUNK = 16


@dataclass(frozen=True)
class EngineContext:
    """Everything a worker needs to evaluate candidates (picklable)."""

    schema: StarSchema
    workload: QueryMix
    system: SystemParameters
    config: AdvisorConfig
    fact_name: str
    bitmap_scheme: BitmapScheme
    specs: Tuple[FragmentationSpec, ...] = ()
    #: Columnar workload compilation of the batched path (shipped once per
    #: worker with the context); ``None`` selects the scalar reference path.
    #: Both return bit-identical candidates.
    class_matrix: Optional[ClassMatrix] = None


def evaluate_spec_in_context(
    context: EngineContext,
    spec: FragmentationSpec,
    cache: Optional[EvaluationCache] = None,
) -> FragmentationCandidate:
    """Fully evaluate one fragmentation candidate.

    This is the engine's unit of dispatch: layout materialization, prefetch
    resolution, the per-query-class cost sweep and the disk allocation.  Pure
    function of ``(context, spec)``; ``cache`` only memoizes, never alters.
    A warm cache returns the whole candidate without recomputing any stage.
    """
    if cache is not None:
        return cache.candidate(
            context, spec, lambda: _evaluate_spec(context, spec, cache)
        )
    return _evaluate_spec(context, spec, None)


def _evaluate_spec(
    context: EngineContext,
    spec: FragmentationSpec,
    cache: Optional[EvaluationCache],
) -> FragmentationCandidate:
    layout = build_layout(
        context.schema,
        spec,
        fact_table=context.fact_name,
        page_size_bytes=context.system.page_size_bytes,
        max_fragments=max(context.config.max_fragments, 1),
    )
    if context.class_matrix is not None:
        # Batched path, one candidate as a 1-row stack: one structure batch
        # per layout (cached like the scalar structures), then granule
        # resolution and the cost model over all query classes at once.
        matrix = context.class_matrix

        def compute():
            return compute_access_structure_batch(layout, matrix)

        if cache is not None:
            structures = cache.access_structure_batch(layout, matrix, compute)
        else:
            structures = compute()
        prefetch = resolve_prefetch_setting_batch(structures, matrix, context.system)
        evaluation = evaluate_workload_batch(
            layout, structures, matrix, context.system, prefetch
        )
    else:
        # Scalar reference path.  The context's workload was validated once at
        # engine/advisor construction, so the per-query re-validation is
        # skipped on this hot path.
        prefetch = resolve_prefetch_setting(
            layout,
            context.workload,
            context.bitmap_scheme,
            context.system,
            cache=cache,
            validate_queries=False,
        )
        model = IOCostModel(context.system, cache=cache, validate_queries=False)
        evaluation = model.evaluate(
            layout, context.workload, context.bitmap_scheme, prefetch
        )
    allocation = choose_allocation(
        layout,
        context.system,
        context.bitmap_scheme,
        skew_threshold_cv=context.config.allocation_skew_cv,
    )
    return FragmentationCandidate(
        spec=spec,
        layout=layout,
        bitmap_scheme=context.bitmap_scheme,
        prefetch=prefetch,
        evaluation=evaluation,
        allocation=allocation,
    )


def evaluate_specs_in_context(
    context: EngineContext,
    indices: Sequence[int],
    cache: Optional[EvaluationCache] = None,
) -> List[FragmentationCandidate]:
    """Evaluate a chunk of candidate indices, candidate-axis batched.

    On the batched path the chunk is grouped by axis structure
    (:attr:`~repro.fragmentation.FragmentationSpec.axis_structure`) and each
    group's layouts are stacked into one (candidate × class) numpy batch —
    structures, prefetch resolution and costs computed in one vector pass,
    bit-identical to evaluating each spec alone (the parity suite pins this).
    The scalar path evaluates spec by spec.  Cache semantics match the
    per-spec path exactly: one candidate probe per index, one structure probe
    per evaluated layout.
    """
    if context.class_matrix is None:
        return [
            evaluate_spec_in_context(context, context.specs[index], cache)
            for index in indices
        ]
    results: Dict[int, FragmentationCandidate] = {}
    pending: List[int] = []
    for index in indices:
        if cache is not None:
            candidate = cache.get_candidate(context, context.specs[index])
            if candidate is not None:
                results[index] = candidate
                continue
        pending.append(index)
    if pending:
        matrix = context.class_matrix
        groups: Dict[Tuple[str, ...], List[int]] = {}
        for index in pending:
            groups.setdefault(context.specs[index].axis_structure, []).append(index)
        # Access structures are computed per axis-structure group (the unit
        # within which the per-class control flow is uniform); everything
        # downstream — prefetch resolution and the cost model — is purely
        # elementwise per candidate, so the whole chunk stacks into ONE
        # (candidate × class) batch regardless of its group mix.
        order: List[int] = []
        group_batches: List[AccessStructureBatch2D] = []
        layouts = []
        allocations = []
        for group in groups.values():
            order.extend(group)
            group_layouts = [
                build_layout(
                    context.schema,
                    context.specs[index],
                    fact_table=context.fact_name,
                    page_size_bytes=context.system.page_size_bytes,
                    max_fragments=max(context.config.max_fragments, 1),
                )
                for index in group
            ]
            layouts.extend(group_layouts)
            group_batches.append(
                _group_structure_batch(context, group_layouts, matrix, cache)
            )
            # Disk placement is batched per group as well: one LPT pass over
            # the group's padded (candidate × fragment) page matrix, bit-
            # identical to the per-candidate choose_allocation reference.
            allocations.extend(
                choose_allocations_batch(
                    group_layouts,
                    context.system,
                    context.bitmap_scheme,
                    skew_threshold_cv=context.config.allocation_skew_cv,
                )
            )
        batch = AccessStructureBatch2D.concat(group_batches)
        prefetches = resolve_prefetch_settings_batch_candidates(
            batch, matrix, context.system
        )
        evaluations = evaluate_workload_batch_candidates(
            layouts, batch, matrix, context.system, prefetches
        )
        for index, layout, prefetch, evaluation, allocation in zip(
            order, layouts, prefetches, evaluations, allocations
        ):
            spec = context.specs[index]
            candidate = FragmentationCandidate(
                spec=spec,
                layout=layout,
                bitmap_scheme=context.bitmap_scheme,
                prefetch=prefetch,
                evaluation=evaluation,
                allocation=allocation,
            )
            results[index] = candidate
            if cache is not None:
                cache.put_candidate(context, spec, candidate)
    return [results[index] for index in indices]


def _group_structure_batch(
    context: EngineContext,
    layouts: Sequence[Any],
    matrix: ClassMatrix,
    cache: Optional[EvaluationCache],
) -> AccessStructureBatch2D:
    """The stacked structure batch of one axis-structure group.

    Per-layout cache probes (same counter semantics as the single-candidate
    path); all misses are computed as ONE stacked batch, and per-layout
    slices feed the cache — the slices are bit-identical to per-layout
    computation, so cross-path and cross-run cache sharing stays exact.  On
    an all-miss (cold) group the freshly stacked batch is returned directly,
    so the common cold path never pays a slice-then-restack round trip.
    """
    if cache is None:
        return compute_access_structure_batch_candidates(layouts, matrix)
    structures: List[Any] = [None] * len(layouts)
    missing: List[int] = []
    for position, layout in enumerate(layouts):
        hit = cache.get_structure_batch(layout, matrix)
        structures[position] = hit
        if hit is None:
            missing.append(position)
    if not missing:
        return AccessStructureBatch2D.stack(structures)
    stacked = compute_access_structure_batch_candidates(
        [layouts[position] for position in missing], matrix
    )
    for j, position in enumerate(missing):
        structure = stacked.candidate(j)
        structures[position] = structure
        cache.put_structure_batch(layouts[position], matrix, structure)
    if len(missing) == len(layouts):
        return stacked
    return AccessStructureBatch2D.stack(structures)


# -- worker-side machinery ---------------------------------------------------------

_WORKER_CONTEXT: Optional[EngineContext] = None
_WORKER_CACHE: Optional[EvaluationCache] = None
_WORKER_SHIPPED_STRUCTURES: set = set()


def _initialize_worker(context: EngineContext) -> None:
    """Pool initializer: receive the context once, build a worker-local cache."""
    global _WORKER_CONTEXT, _WORKER_CACHE
    _WORKER_CONTEXT = context
    _WORKER_CACHE = EvaluationCache()
    _WORKER_SHIPPED_STRUCTURES.clear()


def _evaluate_chunk(
    indices: List[int],
) -> Tuple[CandidateResultBatch, List[Tuple[Any, Any]]]:
    """Evaluate one chunk of candidate indices inside a worker.

    The evaluated candidates are returned as one columnar
    :class:`~repro.engine.result.CandidateResultBatch` — a handful of numpy
    arrays instead of a deep per-candidate object graph, which shrinks the
    worker→parent pickling that dominates the pool's overhead — plus the
    access structures this worker memoized and has not shipped yet, so the
    parent can merge them into the shared cache (they are system-independent
    and serve later tuning studies the candidate-level entries cannot).
    """
    context = _WORKER_CONTEXT
    if context is None:  # pragma: no cover - defensive, initializer always ran
        raise AdvisorError("evaluation worker used before initialization")
    candidates = evaluate_specs_in_context(context, indices, _WORKER_CACHE)
    batch = CandidateResultBatch.from_candidates(indices, candidates)
    fresh_structures = []
    for key, value in _WORKER_CACHE.structure_items():
        if key not in _WORKER_SHIPPED_STRUCTURES:
            _WORKER_SHIPPED_STRUCTURES.add(key)
            fresh_structures.append((key, value))
    return batch, fresh_structures


# -- the engine --------------------------------------------------------------------


def _cancel_requested(cancel) -> bool:
    """True when the cancel signal (token or callable) is set."""
    # Imported lazily: repro.api sits above the engine in the layer stack.
    from repro.api.progress import cancel_requested

    return cancel_requested(cancel)


class EvaluationEngine:
    """Batched candidate evaluation with a serial and a process-pool backend.

    Parameters
    ----------
    schema, workload, system, config:
        The advisor inputs.  ``config`` defaults to :class:`AdvisorConfig`.
    fact_table:
        Fact table to fragment (the schema's primary fact table when omitted).
    options:
        Execution options (:class:`repro.api.EngineOptions`): worker count,
        vectorization, caching, persistent store directory and spill policy.
        Defaults to serial, vectorized, cached, memory-only.
    cache:
        A concrete :class:`EvaluationCache` instance to share with other
        engines (tuning studies and sessions do).  ``None`` (default) creates
        a private cache when ``options.cache`` is true; anything else is an
        :class:`~repro.errors.AdvisorError` (caching is switched off with
        ``options=EngineOptions(cache=False)``).  Workers use private caches
        whose entries are merged back into this one.
    """

    def __init__(
        self,
        schema: StarSchema,
        workload: QueryMix,
        system: SystemParameters,
        config: Optional[AdvisorConfig] = None,
        fact_table: Optional[str] = None,
        cache: Optional[EvaluationCache] = None,
        options: Optional["EngineOptions"] = None,
    ) -> None:
        if cache is not None and not isinstance(cache, EvaluationCache):
            # Every owner (session, Warlock, studies, compare_specs) builds
            # an engine, so this one check covers all their cache= handles.
            raise AdvisorError(
                f"cache= takes a shared EvaluationCache or None, got "
                f"{cache!r}; to disable caching pass "
                f"options=EngineOptions(cache=False)"
            )
        if options is None:
            # Imported lazily: repro.api sits above the engine in the layer
            # stack (its session imports this module).
            from repro.api.options import EngineOptions

            options = EngineOptions()
        self.options = options
        self.schema = schema
        self.workload = workload
        self.system = system
        self.config = config if config is not None else AdvisorConfig()
        self.fact_name = schema.fact_table(fact_table).name
        # Validate the whole workload once; evaluation then runs with
        # per-query validation disabled (see evaluate_spec_in_context).
        workload.validate(schema)
        if cache is not None:
            self.cache: Optional[EvaluationCache] = cache
        elif options.cache:
            self.cache = EvaluationCache()
        else:
            self.cache = None
        if options.cache_dir and self.cache is not None:
            from repro.engine.store import CacheStore

            max_bytes = (
                int(options.cache_max_mb * 1024 * 1024)
                if options.cache_max_mb is not None
                else None
            )
            self.cache.attach(CacheStore(options.cache_dir, max_bytes=max_bytes))
        self._bitmap_scheme: Optional[BitmapScheme] = None
        self._matrices: Dict[str, ClassMatrix] = {}

    # -- shared inputs ----------------------------------------------------------

    def bitmap_scheme(self) -> BitmapScheme:
        """The workload-driven bitmap scheme (designed once, shared by all specs)."""
        if self._bitmap_scheme is None:
            self._bitmap_scheme = design_bitmap_scheme(
                self.schema,
                self.workload,
                fact_table=self.fact_name,
                cardinality_threshold=self.config.bitmap_cardinality_threshold,
            )
        return self._bitmap_scheme

    def class_matrix(self, bitmap_scheme: Optional[BitmapScheme] = None) -> ClassMatrix:
        """The columnar workload compilation for ``bitmap_scheme``.

        Memoized per scheme — the default scheme's matrix serves the whole
        sweep, while tuning studies that exclude indexes get (and reuse)
        their own compilation — and, when a cache is attached, shared through
        it under a (schema, workload, scheme, fact) content key: sessions
        derived via ``with_delta`` that change only the *system* reuse the
        parent's compiled matrix instead of re-compiling it per edit.
        """
        scheme = bitmap_scheme if bitmap_scheme is not None else self.bitmap_scheme()
        key = object_signature(scheme)
        matrix = self._matrices.get(key)
        if matrix is None:

            def compile_matrix() -> ClassMatrix:
                return ClassMatrix.compile(
                    self.schema, self.workload, scheme, fact_table=self.fact_name
                )

            if self.cache is not None:
                shared_key = stable_digest(
                    "CompiledClassMatrix",
                    object_signature(self.schema),
                    EvaluationCache.workload_signature(self.workload),
                    key,
                    self.fact_name,
                )
                matrix = self.cache.class_matrix(shared_key, compile_matrix)
            else:
                matrix = compile_matrix()
            self._matrices[key] = matrix
        return matrix

    def context(
        self,
        specs: Sequence[FragmentationSpec] = (),
        bitmap_scheme: Optional[BitmapScheme] = None,
    ) -> EngineContext:
        """The picklable evaluation context for ``specs``."""
        scheme = bitmap_scheme if bitmap_scheme is not None else self.bitmap_scheme()
        return EngineContext(
            schema=self.schema,
            workload=self.workload,
            system=self.system,
            config=self.config,
            fact_name=self.fact_name,
            bitmap_scheme=scheme,
            specs=tuple(specs),
            class_matrix=(
                self.class_matrix(scheme) if self.options.vectorize else None
            ),
        )

    def plan(self, specs: Sequence[FragmentationSpec]) -> EvaluationPlan:
        """Expand ``specs`` into the engine's evaluation plan."""
        return EvaluationPlan.build(specs, self.workload, self.schema)

    def resolve_jobs(self, num_candidates: int) -> int:
        """The worker count for a sweep of ``num_candidates`` candidates.

        Fixed ``jobs`` values pass through; ``"auto"`` applies the adaptive
        heuristic (CPUs available to the process, candidates per worker).
        """
        if self.options.jobs == "auto":
            return adaptive_jobs(num_candidates)
        return self.options.jobs

    # -- evaluation -------------------------------------------------------------

    def evaluate_spec(
        self,
        spec: FragmentationSpec,
        bitmap_scheme: Optional[BitmapScheme] = None,
    ) -> FragmentationCandidate:
        """Evaluate a single candidate inline (always serial, cache-aware)."""
        context = self.context(bitmap_scheme=bitmap_scheme)
        return evaluate_spec_in_context(context, spec, self.cache)

    def evaluate_specs(
        self,
        specs: Sequence[FragmentationSpec],
        bitmap_scheme: Optional[BitmapScheme] = None,
        on_progress: Optional[Callable] = None,
        cancel: Any = None,
    ) -> List[FragmentationCandidate]:
        """Evaluate every candidate of ``specs``, preserving order.

        Serial and parallel backends return identical candidate lists; the
        parallel backend is only engaged when the resolved worker count
        exceeds one and the sweep is large enough to amortize the pool.

        ``on_progress`` receives one :class:`repro.api.ProgressEvent` per
        completed plan chunk (serially: one capped axis-structure group on the
        batched path, one candidate on the scalar path); ``cancel`` — a
        :class:`repro.api.CancellationToken` or a zero-argument callable — is
        checked at the same chunk boundaries and raises
        :class:`~repro.errors.EvaluationCancelled` when set.  Entries cached
        before a cancel stay valid (they are content-addressed), so a retried
        sweep resumes warm.
        """
        plan = self.plan(specs)
        context = self.context(specs=plan.specs, bitmap_scheme=bitmap_scheme)
        jobs = self.resolve_jobs(plan.num_candidates)
        try:
            candidates = None
            degraded = False
            # Completed candidates the failing backend already produced; the
            # degraded serial retry resumes from them instead of re-evaluating.
            partial: Dict[int, FragmentationCandidate] = {}
            if self.options.fabric is not None:
                try:
                    candidates = self._evaluate_fabric(
                        plan, context, on_progress, cancel
                    )
                except (OSError, FabricError) as error:
                    # The coordinator could not bind (port taken, no network):
                    # the sweep must still complete.  Evaluation errors —
                    # WarlockError subclasses including EvaluationCancelled —
                    # still propagate; they would fail locally too.
                    print(
                        f"warlock: sweep fabric unavailable "
                        f"({type(error).__name__}: {error}); evaluating "
                        f"locally (degraded mode)",
                        file=sys.stderr,
                    )
                    degraded = True
            if (
                candidates is None
                and jobs > 1
                and plan.num_candidates >= MIN_SPECS_FOR_PARALLEL
            ):
                try:
                    candidates = self._evaluate_parallel(
                        plan, context, jobs, on_progress, cancel, partial=partial
                    )
                except (OSError, BrokenProcessPool, pickle.PicklingError) as error:
                    # Restricted environments (no /dev/shm, seccomp'd fork,
                    # workers killed on spawn): the serial path produces the
                    # same results.  Evaluation errors (WarlockError
                    # subclasses, including EvaluationCancelled) still
                    # propagate — they would fail serially too.
                    print(
                        f"warlock: process pool failed "
                        f"({type(error).__name__}: {error}); retrying the "
                        f"remaining candidates serially (degraded mode)",
                        file=sys.stderr,
                    )
                    degraded = True
            if candidates is None:
                candidates = self._evaluate_serial(
                    plan,
                    context,
                    on_progress,
                    cancel,
                    preloaded=partial or None,
                    degraded=degraded,
                )
        finally:
            # Spill new entries to the attached persistent store even when the
            # sweep was cancelled mid-way: every completed evaluation is a
            # valid content-addressed entry a retry can warm-start from.
            # (No-op without a store, with persist=False, or when the sweep
            # was answered entirely warm.)
            if self.cache is not None and self.options.persist:
                self.cache.persist()
        return candidates

    def _progress_event(
        self, plan, completed, chunk, num_chunks, label="", workers=0, degraded=False
    ):
        """Build the chunk-boundary event (lazy import, see class docstring)."""
        from repro.api.progress import ProgressEvent

        per_candidate = len(plan.query_names)
        return ProgressEvent(
            phase="evaluate",
            completed=completed,
            total=plan.num_candidates,
            chunk=chunk,
            num_chunks=num_chunks,
            completed_units=completed * per_candidate,
            total_units=plan.num_candidates * per_candidate,
            label=label,
            workers=workers,
            degraded=degraded,
        )

    def _check_cancel(self, cancel, completed: int, total: int) -> None:
        if _cancel_requested(cancel):
            raise EvaluationCancelled(
                f"evaluation cancelled after {completed}/{total} candidates"
            )

    def _evaluate_serial(
        self,
        plan: EvaluationPlan,
        context: EngineContext,
        on_progress: Optional[Callable] = None,
        cancel: Any = None,
        preloaded: Optional[Dict[int, FragmentationCandidate]] = None,
        degraded: bool = False,
    ) -> List[FragmentationCandidate]:
        # Serial chunk granularity: one axis-structure group (capped, so a
        # sweep dominated by one structure still cancels and reports at a
        # bounded latency) on the batched path, one candidate on the scalar
        # path — the finest boundaries at which cancellation can stop without
        # discarding work.
        #
        # ``preloaded`` carries candidates a failed parallel backend already
        # completed: the degraded retry covers only the remainder, and its
        # events are flagged so wire consumers can tell the strategy changed.
        results: List[Optional[FragmentationCandidate]] = [None] * plan.num_candidates
        pending = list(range(plan.num_candidates))
        if preloaded:
            for index, candidate in preloaded.items():
                results[index] = candidate
            pending = [index for index in pending if results[index] is None]
        if context.class_matrix is not None:
            chunks = plan.axis_groups(
                indices=pending, max_size=MAX_SERIAL_GROUP_CHUNK
            )
        else:
            chunks = [[index] for index in pending]
        total = plan.num_candidates
        completed = total - len(pending)
        if not chunks:
            # Everything was preloaded; report one already-complete logical
            # chunk (never 0/0) so consumers still see a terminal event.
            if on_progress is not None:
                on_progress(
                    self._progress_event(plan, completed, 1, 1, degraded=degraded)
                )
            return results  # type: ignore[return-value]
        for chunk_number, chunk in enumerate(chunks, start=1):
            self._check_cancel(cancel, completed, total)
            for index, candidate in zip(
                chunk, evaluate_specs_in_context(context, chunk, self.cache)
            ):
                results[index] = candidate
            completed += len(chunk)
            if on_progress is not None:
                on_progress(
                    self._progress_event(
                        plan,
                        completed,
                        chunk_number,
                        len(chunks),
                        label=plan.specs[chunk[-1]].label,
                        degraded=degraded,
                    )
                )
        return results  # type: ignore[return-value]

    def _evaluate_parallel(
        self,
        plan: EvaluationPlan,
        context: EngineContext,
        jobs: int,
        on_progress: Optional[Callable] = None,
        cancel: Any = None,
        partial: Optional[Dict[int, FragmentationCandidate]] = None,
    ) -> List[FragmentationCandidate]:
        results: List[Optional[FragmentationCandidate]] = [None] * plan.num_candidates

        # Answer what the shared cache already holds; only misses go to the
        # pool (a fully warm sweep never pays the pool at all), and worker
        # results are inserted back so later serial calls — comparisons,
        # tuning studies — reuse them.  ``partial`` (when given) records every
        # candidate completed so far: if the pool breaks mid-sweep, the
        # caller's degraded serial retry resumes from it instead of paying
        # for the finished chunks again.
        pending = list(range(plan.num_candidates))
        if self.cache is not None:
            pending = []
            for index, spec in enumerate(plan.specs):
                candidate = self.cache.get_candidate(context, spec)
                if candidate is None:
                    pending.append(index)
                else:
                    results[index] = candidate
                    if partial is not None:
                        partial[index] = candidate
        warm = plan.num_candidates - len(pending)
        # The cancellation contract holds even for a fully-warm sweep: a
        # request whose signal is already set raises, never returns.
        self._check_cancel(cancel, warm, plan.num_candidates)
        if not pending:
            if on_progress is not None:
                # A fully-warm sweep dispatches no chunks; report one logical
                # chunk that is already complete (never 0/0 — wire consumers
                # computing chunk/num_chunks ratios must not divide by zero).
                on_progress(self._progress_event(plan, warm, 1, 1))
            return results  # type: ignore[return-value]
        # The batched path keeps same-axis-structure candidates on one
        # worker so the kernels batch at full group width.
        chunks = plan.partition_indices(
            pending, jobs, by_axis_structure=context.class_matrix is not None
        )
        completed = warm
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(chunks)),
            initializer=_initialize_worker,
            initargs=(context,),
        ) as pool:
            if on_progress is not None:
                # Start event: the warm candidates are already accounted for.
                on_progress(self._progress_event(plan, warm, 0, len(chunks)))
            futures = {pool.submit(_evaluate_chunk, chunk): chunk for chunk in chunks}
            done_chunks = 0
            not_done = set(futures)
            while not_done:
                done, not_done = wait(not_done, return_when=FIRST_COMPLETED)
                for future in done:
                    batch, structures = future.result()
                    label = ""
                    for index, candidate in batch.to_candidates(context):
                        results[index] = candidate
                        if partial is not None:
                            partial[index] = candidate
                        label = candidate.label
                        if self.cache is not None:
                            self.cache.put_candidate(
                                context, plan.specs[index], candidate
                            )
                    if self.cache is not None:
                        self.cache.merge_structures(structures)
                    completed += len(batch)
                    done_chunks += 1
                    if on_progress is not None:
                        on_progress(
                            self._progress_event(
                                plan, completed, done_chunks, len(chunks), label=label
                            )
                        )
                if not_done and _cancel_requested(cancel):
                    # Stop dispatching: chunks not yet started are cancelled,
                    # running ones finish in the workers but are discarded.
                    # Everything merged so far stays valid in the cache.
                    pool.shutdown(wait=False, cancel_futures=True)
                    raise EvaluationCancelled(
                        f"evaluation cancelled after {completed}/"
                        f"{plan.num_candidates} candidates"
                    )
        missing = [index for index, candidate in enumerate(results) if candidate is None]
        if missing:  # pragma: no cover - defensive, wait() either returns or raises
            raise AdvisorError(f"parallel evaluation lost candidates {missing}")
        return results  # type: ignore[return-value]

    def _evaluate_fabric(
        self,
        plan: EvaluationPlan,
        context: EngineContext,
        on_progress: Optional[Callable] = None,
        cancel: Any = None,
    ) -> List[FragmentationCandidate]:
        """Lease the sweep's chunks to distributed fabric workers.

        Chunking happens here, deterministically, *before* distribution —
        the same axis-structure groups the serial path walks — so the result
        set is independent of how many workers serve the sweep (or crash
        mid-way).  The coordinator re-queues lost leases and degrades to
        local inline evaluation when no workers are reachable; either way
        this method returns the same candidates the local paths produce.
        """
        # Imported lazily: repro.fabric sits above the engine in the layer
        # stack (it ships EngineContext values over its wire).
        from repro.fabric.coordinator import SweepCoordinator
        from repro.fabric.protocol import parse_address

        results: List[Optional[FragmentationCandidate]] = [None] * plan.num_candidates
        pending = list(range(plan.num_candidates))
        if self.cache is not None:
            pending = []
            for index, spec in enumerate(plan.specs):
                candidate = self.cache.get_candidate(context, spec)
                if candidate is None:
                    pending.append(index)
                else:
                    results[index] = candidate
        warm = plan.num_candidates - len(pending)
        self._check_cancel(cancel, warm, plan.num_candidates)
        if not pending:
            if on_progress is not None:
                on_progress(self._progress_event(plan, warm, 1, 1))
            return results  # type: ignore[return-value]
        if context.class_matrix is not None:
            chunks = plan.axis_groups(indices=pending, max_size=MAX_SERIAL_GROUP_CHUNK)
        else:
            chunks = [[index] for index in pending]
        host, port = parse_address(self.options.fabric)
        coordinator = SweepCoordinator(
            context,
            chunks,
            host=host,
            port=port,
            lease_timeout=self.options.fabric_lease,
            grace=self.options.fabric_grace,
            cache=self.cache,
        )
        completed = warm
        done_chunks = 0
        try:
            if on_progress is not None:
                on_progress(
                    self._progress_event(
                        plan,
                        warm,
                        0,
                        len(chunks),
                        workers=coordinator.live_workers(),
                    )
                )

            def on_chunk(chunk, pairs):
                nonlocal completed, done_chunks
                label = ""
                for index, candidate in pairs:
                    results[index] = candidate
                    label = candidate.label
                    if self.cache is not None:
                        self.cache.put_candidate(context, plan.specs[index], candidate)
                completed += len(pairs)
                done_chunks += 1
                if on_progress is not None:
                    on_progress(
                        self._progress_event(
                            plan,
                            completed,
                            done_chunks,
                            len(chunks),
                            label=label,
                            workers=coordinator.live_workers(),
                            degraded=coordinator.degraded,
                        )
                    )

            coordinator.run(cancel=cancel, on_chunk=on_chunk)
        finally:
            coordinator.close()
        missing = [index for index, candidate in enumerate(results) if candidate is None]
        if missing:  # pragma: no cover - defensive, run() returns or raises
            raise AdvisorError(f"fabric evaluation lost candidates {missing}")
        return results  # type: ignore[return-value]
