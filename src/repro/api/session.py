"""The advisor session: compile once, serve many requests, edit incrementally.

The paper frames WARLOCK as an *interactive* what-if tool: an administrator
loads one warehouse and then varies disks, skew and query-mix weights against
it, comparing the predictions.  That access pattern is a session, which
must not re-validate the schema, re-design the bitmap scheme and re-compile
the columnar class matrix on every what-if variation.

:class:`AdvisorSession` compiles the inputs once (schema validation, workload
validation, bitmap-scheme design, class-matrix compilation — all memoized on
the session's single :class:`~repro.engine.EvaluationEngine`), holds the
shared :class:`~repro.engine.EvaluationCache`, and serves typed requests
(:mod:`repro.api.requests`).  :meth:`AdvisorSession.with_delta` derives an
edited session — different disk count, architecture, skew, mix weights —
that *shares the cache*, so every entry the edit does not invalidate is
reused: the cache keys are content signatures of exactly the inputs that can
move a number, which makes the reuse automatic and exact (fingerprint parity
against a fresh advisor is asserted by the test suite and the E11 benchmark).
The cache also memoizes whole ``recommend()`` answers, so an edit that
revisits an earlier input set is answered without a sweep.

Every request accepts ``on_progress=`` / ``cancel=`` (see
:mod:`repro.api.progress`); events fire at the boundaries of the chunks the
engine's sweep loop evaluates.
"""

from __future__ import annotations

from typing import Any, List, Mapping, Optional, Sequence, Tuple, Union

from repro.api.options import EngineOptions
from repro.api.progress import CancelSignal, ProgressCallback
from repro.api.requests import (
    CompareRequest,
    EvaluateSpecRequest,
    RecommendRequest,
    SimulateRequest,
    TuneRequest,
)
from repro.api.results import (
    CompareResult,
    EvaluateSpecResult,
    RecommendResult,
    SimulateResult,
    TuneResult,
)
from repro.bitmap import BitmapScheme
from repro.core.advisor import DEFAULT_CACHE_ENTRIES, Recommendation
from repro.core.candidates import FragmentationCandidate
from repro.core.config import AdvisorConfig
from repro.core.ranking import rank_candidates_columnar
from repro.core.thresholds import ExclusionReport, evaluate_thresholds
from repro.engine import EvaluationCache, EvaluationEngine
from repro.errors import AdvisorError
from repro.fragmentation import FragmentationSpec, enumerate_point_fragmentations
from repro.schema import StarSchema, validate_schema
from repro.storage import SystemParameters
from repro.tuning import requested_study, run_study
from repro.workload import QueryMix

__all__ = ["AdvisorSession"]

#: Request types -> session methods; the dispatch table of :meth:`submit`.
_Request = Union[
    RecommendRequest, EvaluateSpecRequest, CompareRequest, TuneRequest, SimulateRequest
]


# lint: not-thread-safe instances=session
class AdvisorSession:
    """A long-lived advisor bound to one (schema, workload, system) input set.

    Parameters
    ----------
    schema, workload, system, config:
        The advisor inputs: the star schema (dimensions with hierarchy
        cardinalities, fact tables with row counts and sizes, optional skew),
        the weighted star-query mix, the DBS & disk parameters and the
        advisor tunables (:class:`~repro.core.AdvisorConfig`; defaults follow
        the paper).
    fact_table:
        Fact table to fragment (the schema's primary fact table when omitted).
    options:
        Execution options (:class:`~repro.api.EngineOptions`); defaults to
        serial, vectorized, cached, memory-only.
    cache:
        A concrete :class:`~repro.engine.EvaluationCache` to share with other
        sessions/engines.  ``None`` (default) creates a private bounded cache
        when ``options.cache`` is true.  :meth:`with_delta` passes the
        session's cache to the derived session, which is what makes
        incremental what-if edits warm.
    """

    def __init__(
        self,
        schema: StarSchema,
        workload: QueryMix,
        system: SystemParameters,
        config: Optional[AdvisorConfig] = None,
        fact_table: Optional[str] = None,
        options: Optional[EngineOptions] = None,
        cache: Optional[EvaluationCache] = None,
    ) -> None:
        self.options = options if options is not None else EngineOptions()
        if not isinstance(self.options, EngineOptions):
            raise AdvisorError(
                f"options must be EngineOptions, got {type(self.options).__name__}"
            )
        self.schema = schema
        self.workload = workload
        self.system = system
        self.config = config if config is not None else AdvisorConfig()
        self.fact = schema.fact_table(fact_table)
        self.schema_warnings = validate_schema(schema)
        if cache is not None:
            self.cache: Optional[EvaluationCache] = cache
        elif self.options.cache:
            # Bounded by default: a session is long-lived by design, so the
            # cache must not grow without limit across many large sweeps.
            self.cache = EvaluationCache(max_entries=DEFAULT_CACHE_ENTRIES)
        else:
            self.cache = None
        # One engine for the session's lifetime: construction validates the
        # workload (once per input pair on a shared cache); the bitmap scheme
        # and the columnar class matrix are compiled on first use and
        # memoized for every later request.
        self.engine = EvaluationEngine(
            schema,
            workload,
            system,
            self.config,
            fact_table=self.fact.name,
            options=self.options,
            cache=self.cache,
        )

    # -- compiled inputs --------------------------------------------------------

    def design_bitmaps(self) -> BitmapScheme:
        """The workload-driven bitmap scheme (designed once per session)."""
        return self.engine.bitmap_scheme()

    def _exclusion_key(self) -> Tuple[str, str]:
        """Content key of the candidate enumeration + threshold evaluation.

        Covers every input the enumeration and the threshold rules read:
        schema (hierarchies, fact volumes), fact table, system (disk count,
        capacity, prefetch hints) and the config (bounds, dimensionality,
        baseline inclusion).
        """
        from repro.engine import object_signature, stable_digest

        return (
            "exclusions",
            stable_digest(
                "ExclusionInputs",
                object_signature(self.schema),
                self.fact.name,
                object_signature(self.system),
                object_signature(self.config),
            ),
        )

    def generate_specs(self) -> Tuple[List[FragmentationSpec], ExclusionReport]:
        """Enumerate point fragmentations and apply the exclusion thresholds.

        The outcome — surviving specs *and* the exclusion report with its
        per-candidate threshold diagnostics — is cached under a content key
        over (schema, fact, system, config) and persisted with the cache
        store, so warm-from-disk runs reproduce the ``Recommendation``
        diagnostics without re-enumerating or re-deriving a single threshold.
        """
        key = self._exclusion_key() if self.cache is not None else None
        if key is not None:
            payload = self.cache.get_exclusions(key)
            if payload is not None:
                specs = [
                    FragmentationSpec.of(*map(tuple, pairs))
                    for pairs in payload["specs"]
                ]
                report = ExclusionReport(
                    considered=payload["considered"],
                    excluded={
                        label: tuple(violations)
                        for label, violations in payload["excluded"].items()
                    },
                )
                return specs, report
        report = ExclusionReport()
        surviving: List[FragmentationSpec] = []
        for spec in enumerate_point_fragmentations(
            self.schema,
            fact_table=self.fact.name,
            max_dimensions=self.config.max_fragmentation_dimensions,
            include_baseline=self.config.include_baseline,
        ):
            violations = evaluate_thresholds(
                spec, self.schema, self.fact, self.system, self.config
            )
            report.record(spec, violations)
            if not violations:
                surviving.append(spec)
        if not surviving:
            raise AdvisorError(
                "all fragmentation candidates were excluded by the thresholds; "
                "relax min/max fragment bounds or check the system parameters"
            )
        if key is not None:
            self.cache.put_exclusions(
                key,
                {
                    "specs": [
                        [[a.dimension, a.level] for a in spec.attributes]
                        for spec in surviving
                    ],
                    "considered": report.considered,
                    "excluded": {
                        label: list(violations)
                        for label, violations in report.excluded.items()
                    },
                },
            )
        return surviving, report

    # -- requests ---------------------------------------------------------------

    def submit(
        self,
        request: _Request,
        on_progress: Optional[ProgressCallback] = None,
        cancel: Optional[CancelSignal] = None,
    ):
        """Serve one typed request (the generic front-end entry point)."""
        if isinstance(request, RecommendRequest):
            return self.recommend(on_progress=on_progress, cancel=cancel)
        if isinstance(request, EvaluateSpecRequest):
            return self.evaluate(request, on_progress=on_progress, cancel=cancel)
        if isinstance(request, CompareRequest):
            return self.compare(
                request.specs,
                baseline_spec=request.baseline_spec,
                on_progress=on_progress,
                cancel=cancel,
            )
        if isinstance(request, TuneRequest):
            return self.tune(
                request.study,
                spec=request.spec,
                settings=request.settings,
                on_progress=on_progress,
                cancel=cancel,
            )
        if isinstance(request, SimulateRequest):
            return self.simulate(
                fragmentation=request.fragmentation,
                queries_per_class=request.queries_per_class,
                seed=request.seed,
                on_progress=on_progress,
                cancel=cancel,
            )
        raise AdvisorError(
            f"unknown request type {type(request).__name__}; expected one of "
            f"RecommendRequest, EvaluateSpecRequest, CompareRequest, "
            f"TuneRequest, SimulateRequest"
        )

    def _input_fingerprint(self) -> str:
        """Content fingerprint of every input a ``recommend()`` reads."""
        from repro.engine import EvaluationCache, object_signature, stable_digest

        return stable_digest(
            "RecommendInputs",
            object_signature(self.schema),
            self.fact.name,
            EvaluationCache.workload_signature(self.workload),
            object_signature(self.system),
            object_signature(self.config),
        )

    def recommend(
        self,
        on_progress: Optional[ProgressCallback] = None,
        cancel: Optional[CancelSignal] = None,
    ) -> RecommendResult:
        """Run the full pipeline and return the ranked recommendation.

        Answers are memoized in the session's evaluation cache under a
        content fingerprint of every input the pipeline reads, so a repeated
        ``recommend()`` — on this session, or on any session sharing the
        cache: a fresh one, a ``with_delta`` revisit, a tuning study's
        implicit recommend — returns the first answer O(1), with no
        enumeration, no sweep and not even warm cache probes.  That answer
        references the first asker's input objects (its schema, workload and
        system), which the fingerprint makes equal in content to this
        session's.  A memoized answer emits a single completed
        :class:`~repro.api.ProgressEvent` instead of per-chunk events, and a
        pre-set ``cancel`` still raises.  Disabled together with caching
        (``options.cache=False`` keeps every run a full recomputation).
        """
        memo = self.cache if self.options.cache else None
        fingerprint = self._input_fingerprint() if memo is not None else ""
        result = memo.get_answer(fingerprint) if memo is not None else None
        if result is not None:
            # The cancellation contract holds even for memoized answers: a
            # request whose signal is already set raises, never returns.
            from repro.api.progress import cancel_requested
            from repro.errors import EvaluationCancelled

            if cancel_requested(cancel):
                raise EvaluationCancelled(
                    "recommend() cancelled before returning the memoized result"
                )
            if on_progress is not None:
                from repro.api.progress import ProgressEvent

                total = len(result.recommendation.evaluated)
                per_candidate = len(self.workload)
                on_progress(
                    ProgressEvent(
                        phase="evaluate",
                        completed=total,
                        total=total,
                        # One logical chunk that is already complete: consumers
                        # computing chunk/num_chunks ratios must never divide
                        # by zero on a memoized answer.
                        chunk=1,
                        num_chunks=1,
                        completed_units=total * per_candidate,
                        total_units=total * per_candidate,
                        label="memoized",
                    )
                )
            return result
        specs, report = self.generate_specs()
        candidates = self.engine.evaluate_specs(
            specs, on_progress=on_progress, cancel=cancel
        )
        ranked = rank_candidates_columnar(
            candidates,
            top_fraction=self.config.top_fraction,
            top_candidates=self.config.top_candidates,
        )
        recommendation = Recommendation(
            ranked=tuple(ranked),
            evaluated=tuple(candidates),
            exclusion_report=report,
            config=self.config,
            schema=self.schema,
            workload=self.workload,
            system=self.system,
        )
        result = RecommendResult(recommendation)
        if memo is not None:
            memo.put_answer(fingerprint, result, len(candidates))
        return result

    def evaluate(
        self,
        request: EvaluateSpecRequest,
        on_progress: Optional[ProgressCallback] = None,
        cancel: Optional[CancelSignal] = None,
    ) -> EvaluateSpecResult:
        """Fully evaluate a single fragmentation candidate.

        The progress/cancel contract is the engine's
        (:meth:`~repro.engine.EvaluationEngine.evaluate_spec`): a pre-set
        ``cancel`` signal raises :class:`~repro.errors.EvaluationCancelled`
        before the candidate is evaluated, and ``on_progress`` receives
        exactly one completed event that names the spec.
        """
        scheme = None
        if request.bitmap_exclude:
            scheme = self.design_bitmaps().without(*request.bitmap_exclude)
        candidate = self.engine.evaluate_spec(
            request.spec, bitmap_scheme=scheme, on_progress=on_progress, cancel=cancel
        )
        return EvaluateSpecResult(candidate)

    def evaluate_spec(
        self,
        spec: FragmentationSpec,
        bitmap_scheme: Optional[BitmapScheme] = None,
    ) -> FragmentationCandidate:
        """Evaluate one candidate, optionally under an explicit bitmap scheme."""
        return self.engine.evaluate_spec(spec, bitmap_scheme=bitmap_scheme)

    def compare(
        self,
        specs: Sequence[FragmentationSpec],
        baseline_spec: Optional[FragmentationSpec] = None,
        on_progress: Optional[ProgressCallback] = None,
        cancel: Optional[CancelSignal] = None,
    ) -> CompareResult:
        """Evaluate ``specs`` through the session's engine and render the table."""
        from repro.analysis import compare_candidates

        if not specs:
            raise AdvisorError("compare needs at least one spec")
        sweep = list(specs) if baseline_spec is None else [baseline_spec, *specs]
        candidates = self.engine.evaluate_specs(
            sweep, on_progress=on_progress, cancel=cancel
        )
        if baseline_spec is None:
            baseline = None
            compared = tuple(candidates)
            table = compare_candidates(candidates)
        else:
            baseline = candidates[0]
            compared = tuple(candidates[1:])
            table = compare_candidates(candidates, baseline=baseline)
        return CompareResult(candidates=compared, baseline=baseline, table=table)

    def tune(
        self,
        study: str,
        spec: Optional[FragmentationSpec] = None,
        settings: Any = None,
        on_progress: Optional[ProgressCallback] = None,
        cancel: Optional[CancelSignal] = None,
    ) -> TuneResult:
        """Run one what-if study of :data:`repro.tuning.STUDIES` on this session.

        ``settings`` must have the study's form (the stock sweep when
        omitted); every setting is this session with the study's edit applied
        (:meth:`with_delta`), so the study keeps the session's fact table and
        shares its cache.  ``spec`` defaults to the session's recommended
        fragmentation (warm from the cache after a previous :meth:`recommend`).
        ``cancel`` is checked at every setting boundary (and inside the
        implicit recommend); ``on_progress`` receives one composite meter for
        the whole request — the implicit recommend sweep is reported as sweep
        1 of 2 and the per-setting study events as sweep 2 of 2 (a request
        with an explicit ``spec`` runs a single study sweep).
        """
        from repro.api.progress import sweep_scoped

        entry = requested_study(study, settings)
        settings = entry.stock if settings is None else settings
        if not settings:
            raise AdvisorError(entry.needs)
        study_progress = on_progress
        if spec is None:
            spec = self.recommend(
                on_progress=sweep_scoped(on_progress, 1, 2), cancel=cancel
            ).best.spec
            study_progress = sweep_scoped(on_progress, 2, 2)
        return TuneResult(
            run_study(entry, self, spec, entry.expand(settings), cancel, study_progress)
        )

    def simulate(
        self,
        fragmentation: Optional[str] = None,
        queries_per_class: int = 10,
        seed: int = 0,
        on_progress: Optional[ProgressCallback] = None,
        cancel: Optional[CancelSignal] = None,
    ) -> SimulateResult:
        """Replay the workload on an evaluated candidate's allocation.

        A composite request: the implicit recommend sweep reports as sweep 1
        of 2, the replay itself as a single completed event in sweep 2 of 2
        (the event-driven simulation has no chunk boundaries of its own).
        """
        from repro.api.progress import ProgressEvent, cancel_requested, sweep_scoped
        from repro.errors import EvaluationCancelled
        from repro.simulation import DiskSimulator

        recommendation = self.recommend(
            on_progress=sweep_scoped(on_progress, 1, 2), cancel=cancel
        )
        candidate = (
            recommendation.recommendation.candidate(fragmentation)
            if fragmentation
            else recommendation.best
        )
        if cancel_requested(cancel):
            raise EvaluationCancelled("simulate cancelled before the replay")
        simulator = DiskSimulator(self.system)
        replay = simulator.run_workload(
            candidate.layout,
            self.workload,
            candidate.bitmap_scheme,
            candidate.allocation,
            candidate.prefetch,
            queries_per_class=queries_per_class,
            seed=seed,
        )
        if on_progress is not None:
            queries = len(self.workload) * queries_per_class
            on_progress(
                ProgressEvent(
                    phase="simulate",
                    completed=1,
                    total=1,
                    chunk=1,
                    num_chunks=1,
                    completed_units=queries,
                    total_units=queries,
                    label=candidate.label,
                    sweep=2,
                    num_sweeps=2,
                )
            )
        return SimulateResult(
            candidate_label=candidate.label,
            simulation=replay,
            predicted_io_cost_ms=candidate.io_cost_ms,
            predicted_response_time_ms=candidate.response_time_ms,
        )

    # -- incremental what-if edits ---------------------------------------------

    def with_delta(
        self,
        *,
        disks: Optional[int] = None,
        architecture: Optional[str] = None,
        prefetch_fact: Optional[Union[int, str]] = None,
        skew: Optional[Mapping[str, float]] = None,
        mix_weights: Optional[Mapping[str, float]] = None,
        schema: Optional[StarSchema] = None,
        workload: Optional[QueryMix] = None,
        system: Optional[SystemParameters] = None,
        config: Optional[AdvisorConfig] = None,
        options: Optional[EngineOptions] = None,
    ) -> "AdvisorSession":
        """Derive a session with an incremental what-if edit applied.

        Convenience deltas (``disks``, ``architecture``, ``prefetch_fact``,
        ``skew``, ``mix_weights``) edit the current inputs; the block
        arguments (``schema``, ``workload``, ``system``, ``config``) replace
        them outright before the convenience deltas apply.  The derived
        session **shares this session's evaluation cache**, so every entry
        whose inputs the delta leaves unchanged is reused — e.g. a disk-count
        or weight edit reuses all access structures, and reverting an edit
        reuses the whole earlier sweep.  Results are guaranteed identical to
        a fresh advisor built from the edited inputs (content-addressed cache
        keys cover every input that can move a number).
        """
        new_system = system if system is not None else self.system
        if disks is not None:
            new_system = new_system.with_disks(disks)
        if architecture is not None:
            new_system = new_system.with_architecture(architecture)
        if prefetch_fact is not None:
            new_system = new_system.with_prefetch(fact=prefetch_fact)
        new_schema = schema if schema is not None else self.schema
        if skew:
            new_schema = new_schema.with_skew(skew)
        new_workload = workload if workload is not None else self.workload
        if mix_weights:
            new_workload = new_workload.reweighted(dict(mix_weights))
        return AdvisorSession(
            new_schema,
            new_workload,
            new_system,
            config=config if config is not None else self.config,
            # Convenience deltas keep the fact tables, so the session's fact
            # carries over; a wholesale schema replacement re-resolves the
            # primary fact table of the new schema.
            fact_table=self.fact.name if schema is None else None,
            options=options if options is not None else self.options,
            cache=self.cache,
        )

    # -- bookkeeping ------------------------------------------------------------

    @property
    def stats(self):
        """Hit/miss counters of the session cache (``None`` when uncached)."""
        return self.cache.stats if self.cache is not None else None

    def persist_cache(self) -> Optional[int]:
        """Flush unsaved cache entries to the attached persistent store."""
        if self.cache is None or not self.options.persist:
            return None
        return self.cache.persist()

    def close(self) -> None:
        """End the session: flush the cache to its persistent store."""
        self.persist_cache()

    def __enter__(self) -> "AdvisorSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def describe(self) -> str:
        """One-line summary used by logs and examples."""
        cached = "uncached" if self.cache is None else f"{len(self.cache)} cache entries"
        return (
            f"AdvisorSession(schema={self.schema.name!r}, "
            f"classes={len(self.workload)}, {self.system.describe()}, "
            f"{self.options.describe()}, {cached})"
        )
