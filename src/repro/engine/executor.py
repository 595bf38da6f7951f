"""The candidate-evaluation engine: batched and cache-aware.

:class:`EvaluationEngine` replaces the advisor's serial candidate loop.  It
runs every sweep through one driver (:meth:`EvaluationEngine.evaluate_specs`):
the shared cache answers the warm candidates, the misses are cut into
consecutive chunks, and one loop evaluates the chunks in turn, placing
results, filling the cache, reporting progress and honouring cancellation.
Results are **deterministic**: every evaluation is a pure function of its
inputs, so chunking never changes an answer (the parity suites assert this).

Two cost paths implement the same model (``EngineOptions.vectorize``):

* the **batched path** (``True``, default) places the whole sweep on disks
  before its first chunk: the driver builds every pending layout once and
  hands them all to one allocation call, which derives round-robin
  placements on first read and places every greedy survivor in one batched
  LPT pass (:mod:`repro.allocation.batch`).  Each chunk then stacks its
  layouts, whatever dimensions they fragment, into one (candidate × class)
  numpy batch and runs structures, prefetch resolution and the cost model
  once (:mod:`repro.costmodel.batch`);
* the **scalar path** (``False``, CLI ``--no-vectorize``) runs the per-class
  reference oracle.

Both are bit-identical by construction and by test
(``tests/test_vector_parity.py``); the scalar path remains the reference and
the escape hatch.

Both paths cut a sweep's misses the same way: into at least
:data:`INLINE_CHUNKS` consecutive runs of at most :data:`MAX_CHUNK_WIDTH`
candidates, whose lengths differ by at most one.  A single candidate
(:meth:`EvaluationEngine.evaluate_spec`, the tuning studies) is a sweep of
one: the same driver probes the cache, places it and evaluates it as one
chunk of one index.

An engine's compiled inputs — the workload's validation, the bitmap scheme
and the class matrix — are memoized once per process by content
(:func:`_compiled_input`), not per cache: a served warehouse re-activated
after eviction, a fresh sweep session or a ``with_delta`` revisit validates,
designs and compiles nothing.  ``EngineOptions(cache=False)`` bypasses the
memo.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.allocation import Allocation, choose_allocation, choose_allocations_batch
from repro.bitmap import BitmapScheme, design_bitmap_scheme
from repro.core.candidates import FragmentationCandidate
from repro.core.config import AdvisorConfig
from repro.costmodel import (
    AccessStructureBatch2D,
    IOCostModel,
    compute_access_structure_batch_candidates,
    evaluate_workload_batch_candidates,
    resolve_prefetch_setting,
    resolve_prefetch_settings_batch_candidates,
    workload_structures,
)
# Not called here: perfbench/probes.py rebinds these names on this module.
from repro.costmodel import (  # noqa: F401
    compute_access_structure_batch,
    evaluate_workload_batch,
    resolve_prefetch_setting_batch,
)
from repro.errors import AdvisorError, EvaluationCancelled
from repro.fragmentation import (
    FragmentationLayout,
    FragmentationSpec,
    build_layout,
    check_fragment_limit,
)
from repro.schema import StarSchema
from repro.storage import SystemParameters
from repro.workload import ClassMatrix, QueryMix
from repro.engine.cache import EvaluationCache
from repro.engine.signature import object_signature

__all__ = [
    "EngineContext",
    "EvaluationEngine",
    "evaluate_specs_in_context",
]

#: Chunks a sweep is cut into (fewer when it has fewer misses).  Each chunk
#: costs a few milliseconds of fixed numpy and Python overhead, and each chunk
#: boundary is a progress report and a cancellation point; eight keeps both
#: small.
INLINE_CHUNKS = 8

#: Widest chunk a sweep evaluates: larger sweeps get more chunks, so the
#: per-chunk (candidate × class) planes of the structure and cost kernels
#: stay bounded however large the sweep grows.  (The sweep's LPT placement
#: runs before the chunks, bounded by its own cell budget,
#: :data:`repro.allocation.batch.LPT_CELL_BUDGET`.)
MAX_CHUNK_WIDTH = 48

#: A sweep's built layouts and their disk allocations, by index into the
#: context's specs.
Placements = Dict[int, Tuple[FragmentationLayout, Allocation]]

#: Entries the process's compiled-input memo keeps, least recently used
#: dropped first.  A validated input pair, a bitmap scheme and a class
#: matrix are one entry each; a FULL input set's scheme and matrix retain
#: about 27 KB.
COMPILED_INPUTS_BOUND = 128

#: The process's compiled inputs by content key (see :func:`_compiled_input`).
_compiled_inputs: "OrderedDict[Tuple[str, ...], Any]" = OrderedDict()
#: Serializes lookups, compiles and inserts of the compiled-input memo.
_compile_lock = threading.Lock()


def _compiled_input(key: Tuple[str, ...], compute: Callable[[], Any]) -> Any:
    """``compute()``, once per content ``key`` in this process.

    A key names the kind of input and the (schema, workload) signature pair
    it derives from, so an entry is valid for every engine on content-equal
    inputs: a re-activated session, a fresh sweep session, a ``with_delta``
    revisit.  Compiles run under
    :data:`_compile_lock`, so threads building sessions on content-equal
    inputs at once compile once and share the object; a raise is never
    remembered.
    """
    with _compile_lock:
        value = _compiled_inputs.get(key)
        if value is None:
            value = compute()
            _compiled_inputs[key] = value
            if len(_compiled_inputs) > COMPILED_INPUTS_BOUND:
                _compiled_inputs.popitem(last=False)
        else:
            _compiled_inputs.move_to_end(key)
        return value


def _validate(schema: StarSchema, workload: QueryMix) -> bool:
    """``workload.validate(schema)``; True once it passed."""
    workload.validate(schema)
    return True


@dataclass(frozen=True)
class EngineContext:
    """Everything a sweep's evaluation reads: inputs, bitmap scheme, specs."""

    schema: StarSchema
    workload: QueryMix
    system: SystemParameters
    config: AdvisorConfig
    fact_name: str
    bitmap_scheme: BitmapScheme
    specs: Tuple[FragmentationSpec, ...]
    #: Columnar workload compilation of the batched path; ``None`` selects
    #: the scalar reference path.  Both return bit-identical candidates.
    class_matrix: Optional[ClassMatrix] = None


def _layout(
    context: EngineContext,
    spec: FragmentationSpec,
    cache: Optional[EvaluationCache],
) -> FragmentationLayout:
    """The built layout of ``spec``, memoized in ``cache`` across sweeps.

    A memoized layout may have been built under a looser materialization
    limit, so the context's limit is checked again on every hit.
    """
    max_fragments = max(context.config.max_fragments, 1)

    def build() -> FragmentationLayout:
        return build_layout(
            context.schema,
            spec,
            fact_table=context.fact_name,
            page_size_bytes=context.system.page_size_bytes,
            max_fragments=max_fragments,
        )

    if cache is None:
        return build()
    key = cache.layout_key(
        context.schema, context.fact_name, spec, context.system.page_size_bytes
    )
    layout = cache.layout(key, build)
    check_fragment_limit(spec, layout.fragment_count, max_fragments)
    return layout


def _evaluate_spec(
    context: EngineContext,
    spec: FragmentationSpec,
    cache: Optional[EvaluationCache],
) -> FragmentationCandidate:
    """The scalar reference oracle: one candidate, one query class at a time."""
    layout = _layout(context, spec, cache)
    # The context's workload was validated once at engine/advisor
    # construction, so the per-query re-validation is skipped on this hot
    # path.  Each class's structure is derived once and read by both the
    # prefetch resolution and the evaluation.
    structures = workload_structures(
        layout, context.workload, context.bitmap_scheme, validate=False
    )
    prefetch = resolve_prefetch_setting(
        layout,
        context.workload,
        context.bitmap_scheme,
        context.system,
        structures=structures,
    )
    evaluation = IOCostModel(context.system).evaluate(
        layout, context.workload, context.bitmap_scheme, prefetch, structures
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


def _place_specs(
    context: EngineContext,
    indices: Sequence[int],
    cache: Optional[EvaluationCache],
) -> Placements:
    """Build the layouts of ``indices`` and place them all on disks at once.

    One allocation call covers every index: round-robin placements are
    derived when first read, and every greedy one is placed by one batched
    LPT pass, bit-identical to the per-candidate ``choose_allocation``
    reference (the parity suites pin this).
    """
    layouts = [_layout(context, context.specs[index], cache) for index in indices]
    allocations = choose_allocations_batch(
        layouts,
        context.system,
        context.bitmap_scheme,
        skew_threshold_cv=context.config.allocation_skew_cv,
    )
    return dict(zip(indices, zip(layouts, allocations)))


def evaluate_specs_in_context(
    context: EngineContext,
    indices: Sequence[int],
    cache: Optional[EvaluationCache] = None,
    placed: Optional[Placements] = None,
) -> List[FragmentationCandidate]:
    """Evaluate a chunk of indices into ``context.specs`` in one kernel pass.

    On the batched path every layout of the chunk, whatever dimensions it
    fragments, stacks into one (candidate × class) numpy batch: structures,
    prefetch resolution and costs run once for the whole chunk,
    bit-identical to evaluating each spec alone (the parity suite pins
    this).  ``placed`` holds the chunk's layouts and allocations: the
    engine's driver places its whole sweep before the first chunk and hands
    every chunk the same map; without it the chunk places its own indices
    the same way.  The scalar path evaluates spec by spec and ignores
    ``placed``.  ``cache`` memoizes built layouts, and on the batched path
    access structures (one structure probe per evaluated layout); the scalar
    oracle takes no cache for its structures.  Whole candidates are probed
    and stored by :meth:`EvaluationEngine.evaluate_specs`, once per spec, so
    every index handed in here is evaluated.
    """
    if context.class_matrix is None:
        return [
            _evaluate_spec(context, context.specs[index], cache) for index in indices
        ]
    if not indices:
        return []
    if placed is None:
        placed = _place_specs(context, indices, cache)
    matrix = context.class_matrix
    specs = [context.specs[index] for index in indices]
    layouts = [placed[index][0] for index in indices]
    allocations = [placed[index][1] for index in indices]
    structures = _structure_batch(layouts, matrix, cache)
    prefetches = resolve_prefetch_settings_batch_candidates(
        structures, matrix, context.system
    )
    evaluations = evaluate_workload_batch_candidates(
        layouts, structures, matrix, context.system, prefetches
    )
    return [
        FragmentationCandidate(
            spec=spec,
            layout=layout,
            bitmap_scheme=context.bitmap_scheme,
            prefetch=prefetch,
            evaluation=evaluation,
            allocation=allocation,
        )
        for spec, layout, prefetch, evaluation, allocation in zip(
            specs, layouts, prefetches, evaluations, allocations
        )
    ]


def _structure_batch(
    layouts: Sequence[FragmentationLayout],
    matrix: ClassMatrix,
    cache: Optional[EvaluationCache],
) -> AccessStructureBatch2D:
    """The stacked structure batch of one chunk.

    One cache probe per layout; all misses are computed as ONE stacked
    batch, and each miss's row is copied out of it as a 1-row stack for the
    cache — bit-identical to per-layout computation, so cache sharing across
    chunk shapes and runs stays exact.  On an all-miss (cold) chunk the
    freshly stacked batch is returned directly, so the common cold path
    never pays a copy-then-restack round trip.
    """
    if cache is None:
        return compute_access_structure_batch_candidates(layouts, matrix)
    structures = [cache.get_structure_batch(layout, matrix) for layout in layouts]
    missing = [position for position, hit in enumerate(structures) if hit is None]
    if missing:
        stacked = compute_access_structure_batch_candidates(
            [layouts[position] for position in missing], matrix
        )
        for j, position in enumerate(missing):
            structures[position] = stacked.candidate(j)
            cache.put_structure_batch(layouts[position], matrix, structures[position])
        if len(missing) == len(layouts):
            return stacked
    return AccessStructureBatch2D.stack(structures)


# -- the engine --------------------------------------------------------------------


def _chunks(pending: List[int]) -> List[List[int]]:
    """Cut ``pending`` into consecutive runs whose lengths differ by at most one.

    ``max(INLINE_CHUNKS, ceil(n / MAX_CHUNK_WIDTH))`` runs, so none is wider
    than :data:`MAX_CHUNK_WIDTH`; fewer when there are fewer than that many
    misses (one each).
    """
    count = len(pending)
    parts = min(count, max(INLINE_CHUNKS, -(-count // MAX_CHUNK_WIDTH)))
    return [
        pending[part * count // parts : (part + 1) * count // parts]
        for part in range(parts)
    ]


def _check_cancel(cancel, completed: int, total: int) -> None:
    """Raise :class:`~repro.errors.EvaluationCancelled` once ``cancel`` is set."""
    # Imported lazily: repro.api sits above the engine in the layer stack.
    from repro.api.progress import cancel_requested

    if cancel_requested(cancel):
        raise EvaluationCancelled(
            f"evaluation cancelled after {completed}/{total} candidates"
        )


class EvaluationEngine:
    """Batched, cache-aware candidate evaluation.

    Parameters
    ----------
    schema, workload, system, config:
        The advisor inputs.  ``config`` defaults to :class:`AdvisorConfig`.
    fact_table:
        Fact table to fragment (the schema's primary fact table when omitted).
    options:
        Execution options (:class:`repro.api.EngineOptions`): vectorization,
        caching, persistent store directory and spill policy.  Defaults to
        vectorized, cached, memory-only.
    cache:
        A concrete :class:`EvaluationCache` instance to share with other
        engines (tuning studies and sessions do).  ``None`` (default) creates
        a private cache when ``options.cache`` is true; anything else is an
        :class:`~repro.errors.AdvisorError` (caching is switched off with
        ``options=EngineOptions(cache=False)``).
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
            # Every owner (session, studies) builds an engine, so this one
            # check covers all their cache= handles.
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
        if cache is not None:
            self.cache: Optional[EvaluationCache] = cache
        elif options.cache:
            self.cache = EvaluationCache()
        else:
            self.cache = None
        #: Content key of the (schema, workload) pair under which the
        #: process memoizes this engine's compiled inputs; ``None`` when
        #: caching is off, and every construction validates and compiles.
        self._inputs_key: Optional[Tuple[str, str]] = (
            (object_signature(schema), EvaluationCache.workload_signature(workload))
            if options.cache
            else None
        )
        # Validate the whole workload once per input pair; evaluation then
        # runs with per-query validation disabled (see _evaluate_spec).
        self._compiled("validated", lambda: _validate(schema, workload))
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

    def _compiled(self, kind: str, compute: Callable[[], Any], *key: str) -> Any:
        """``compute()``, memoized by the process under this input pair's
        ``(kind, *key)`` when caching is on (see :func:`_compiled_input`)."""
        if self._inputs_key is None:
            return compute()
        return _compiled_input((kind, *self._inputs_key, *key), compute)

    def bitmap_scheme(self) -> BitmapScheme:
        """The workload-driven bitmap scheme (designed once, shared by all specs).

        Memoized by the process under (fact table, cardinality threshold)
        when caching is on.
        """
        if self._bitmap_scheme is None:
            threshold = self.config.bitmap_cardinality_threshold
            self._bitmap_scheme = self._compiled(
                "scheme",
                lambda: design_bitmap_scheme(
                    self.schema,
                    self.workload,
                    fact_table=self.fact_name,
                    cardinality_threshold=threshold,
                ),
                self.fact_name,
                str(threshold),
            )
        return self._bitmap_scheme

    def class_matrix(self, bitmap_scheme: Optional[BitmapScheme] = None) -> ClassMatrix:
        """The columnar workload compilation for ``bitmap_scheme``.

        Memoized per scheme on the engine — the default scheme's matrix
        serves the whole sweep, while requests that exclude indexes get (and
        reuse) their own compilation — and, when caching is on, by the
        process under (scheme, fact table): every engine on content-equal
        inputs, whatever its system or cache, shares one compiled matrix.
        The matrix's arrays are read-only.
        """
        scheme = bitmap_scheme if bitmap_scheme is not None else self.bitmap_scheme()
        key = object_signature(scheme)
        matrix = self._matrices.get(key)
        if matrix is None:
            matrix = self._compiled(
                "matrix",
                lambda: ClassMatrix.compile(
                    self.schema, self.workload, scheme, fact_table=self.fact_name
                ),
                key,
                self.fact_name,
            )
            self._matrices[key] = matrix
        return matrix

    def context(
        self,
        specs: Sequence[FragmentationSpec],
        bitmap_scheme: Optional[BitmapScheme] = None,
    ) -> EngineContext:
        """The evaluation context for ``specs``."""
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

    # -- evaluation -------------------------------------------------------------

    def evaluate_spec(
        self,
        spec: FragmentationSpec,
        bitmap_scheme: Optional[BitmapScheme] = None,
        on_progress: Optional[Callable] = None,
        cancel: Any = None,
    ) -> FragmentationCandidate:
        """Evaluate a single candidate: the sweep driver's answer for ``[spec]``.

        ``on_progress`` and ``cancel`` work as for :meth:`evaluate_specs`:
        one complete event names ``spec``, warm or cold.  Unlike
        :meth:`evaluate_specs` it never writes the attached store: its
        callers persist on their own terms (a tuning study once when it
        finishes, a session when it closes), so a served single evaluation
        never rewrites a whole store.
        """
        [candidate] = self._sweep([spec], bitmap_scheme, on_progress, cancel)
        return candidate

    def evaluate_specs(
        self,
        specs: Sequence[FragmentationSpec],
        bitmap_scheme: Optional[BitmapScheme] = None,
        on_progress: Optional[Callable] = None,
        cancel: Any = None,
    ) -> List[FragmentationCandidate]:
        """Evaluate every candidate of ``specs``, preserving order.

        The entry point of every sweep (an empty ``specs`` returns ``[]`` and
        emits no progress).  Its driver probes the shared cache once per spec; on
        the batched path it builds the misses' layouts and places them all
        on disks in one allocation call.  On both paths it then cuts the
        misses, in sweep order, into at least :data:`INLINE_CHUNKS`
        consecutive chunks of at most :data:`MAX_CHUNK_WIDTH` candidates,
        whose lengths differ by at most one, and evaluates them in one loop
        that places the results, inserts them into the cache, reports
        progress and honours ``cancel``.

        ``on_progress`` receives one :class:`repro.api.ProgressEvent` per
        completed chunk, labelled with the last spec it covers (a fully warm
        sweep reports a single complete chunk);
        ``cancel`` — a :class:`repro.api.CancellationToken` or a zero-argument
        callable — is checked after the cache probe and at every chunk
        boundary, and raises :class:`~repro.errors.EvaluationCancelled` when
        set.  Entries cached before a cancel stay valid (they are
        content-addressed), so a retried sweep resumes warm.
        """
        if not specs:
            return []
        try:
            return self._sweep(specs, bitmap_scheme, on_progress, cancel)
        finally:
            # Spill new entries to the attached persistent store even when the
            # sweep was cancelled mid-way: every completed evaluation is a
            # valid content-addressed entry a retry can warm-start from.
            # (No-op without a store, with persist=False, or when the sweep
            # was answered entirely warm.)
            if self.cache is not None and self.options.persist:
                self.cache.persist()

    def _sweep(
        self,
        specs: Sequence[FragmentationSpec],
        bitmap_scheme: Optional[BitmapScheme],
        on_progress: Optional[Callable],
        cancel: Any,
    ) -> List[FragmentationCandidate]:
        """Driver of :meth:`evaluate_specs` and :meth:`evaluate_spec`; never persists."""
        # Imported lazily: repro.api sits above the engine in the layer stack.
        from repro.api.progress import ProgressEvent

        context = self.context(specs, bitmap_scheme)
        cache = self.cache
        total = len(specs)
        per_candidate = len(self.workload)
        results: List[Optional[FragmentationCandidate]] = [None] * total
        pending: List[int] = []
        for index, spec in enumerate(specs):
            hit = cache.get_candidate(context, spec) if cache is not None else None
            if hit is None:
                pending.append(index)
            else:
                results[index] = hit
        completed = total - len(pending)

        def report(chunk: int, num_chunks: int, label: str) -> None:
            if on_progress is not None:
                on_progress(
                    ProgressEvent(
                        phase="evaluate",
                        completed=completed,
                        total=total,
                        chunk=chunk,
                        num_chunks=num_chunks,
                        completed_units=completed * per_candidate,
                        total_units=total * per_candidate,
                        label=label,
                    )
                )

        _check_cancel(cancel, completed, total)
        if not pending:
            # Nothing to evaluate: report one already-complete chunk
            # (never 0/0 — wire consumers divide chunk by num_chunks).
            report(1, 1, specs[-1].label)
            return results  # type: ignore[return-value]
        placed: Optional[Placements] = None
        if context.class_matrix is not None:
            placed = _place_specs(context, pending, cache)
        chunks = _chunks(pending)
        for number, chunk in enumerate(chunks, 1):
            # Looked up as a module global on every chunk, so a rebinding
            # of the name (profilers, probes) sees every call.
            candidates = evaluate_specs_in_context(context, chunk, cache, placed)
            for index, candidate in zip(chunk, candidates):
                results[index] = candidate
                if cache is not None:
                    cache.put_candidate(context, specs[index], candidate)
            completed += len(chunk)
            report(number, len(chunks), specs[chunk[-1]].label)
            if completed < total:
                _check_cancel(cancel, completed, total)
        return results  # type: ignore[return-value]
