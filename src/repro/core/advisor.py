"""The WARLOCK advisor: input layer -> prediction layer -> recommendation.

:class:`Warlock` is the classic one-shot entry point a DBA (or a GUI / CLI
front end) interacts with.  It takes the three input blocks of the paper's
input layer — the star schema, the DBS & disk parameters and the weighted
star query mix — and produces a :class:`Recommendation`: the ranked list of
fragmentation candidates, each complete with bitmap scheme, prefetch
suggestion, disk allocation and per-query-class cost prediction.

Since the API redesign, :class:`Warlock` is a thin compatibility wrapper over
an :class:`~repro.api.AdvisorSession`: the session owns the compiled inputs,
the evaluation engine and the shared cache, and additionally serves typed
requests, incremental what-if deltas (``session.with_delta(...)``) and
progress/cancellation.  New code should use sessions directly; ``Warlock``
keeps the historical surface (``recommend()``, ``evaluate_spec()``,
``generate_specs()``, ...) stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.bitmap import BitmapScheme
from repro.core.candidates import FragmentationCandidate
from repro.core.config import AdvisorConfig
from repro.core.ranking import RankedCandidate
from repro.core.thresholds import ExclusionReport
from repro.errors import AdvisorError
from repro.fragmentation import FragmentationSpec
from repro.schema import StarSchema
from repro.storage import SystemParameters
from repro.workload import QueryMix

__all__ = ["Warlock", "Recommendation"]

#: Per-kind entry bound of the advisor's default evaluation cache.  Structure
#: entries are tiny; candidate entries carry per-fragment arrays, so the bound
#: keeps a long-lived advisor's footprint at worst tens of MB while still
#: covering several full sweeps.
DEFAULT_CACHE_ENTRIES = 2048


@dataclass(frozen=True)
class Recommendation:
    """The advisor's output: ranked candidates plus provenance."""

    ranked: Tuple[RankedCandidate, ...]
    evaluated: Tuple[FragmentationCandidate, ...]
    exclusion_report: ExclusionReport
    config: AdvisorConfig
    schema: StarSchema
    workload: QueryMix
    system: SystemParameters

    @property
    def best(self) -> FragmentationCandidate:
        """The top-ranked fragmentation candidate."""
        if not self.ranked:
            raise AdvisorError("the recommendation contains no ranked candidates")
        return self.ranked[0].candidate

    def candidate(self, label: str) -> FragmentationCandidate:
        """Look up an evaluated candidate by its fragmentation label."""
        for candidate in self.evaluated:
            if candidate.label == label:
                return candidate
        raise AdvisorError(f"no evaluated candidate labelled {label!r}")

    def describe(self) -> str:
        """Compact multi-line summary of the ranked list."""
        lines = [
            f"WARLOCK recommendation for schema {self.schema.name!r} "
            f"({self.system.describe()})",
            self.exclusion_report.describe().splitlines()[0],
            f"Top {len(self.ranked)} fragmentations "
            f"(leading {self.config.top_fraction:.0%} by I/O cost, ranked by "
            f"response time):",
        ]
        lines.extend(f"  {ranked.describe()}" for ranked in self.ranked)
        return "\n".join(lines)

    def to_dict(
        self,
        include_all_candidates: bool = False,
        include_query_statistics: bool = True,
    ) -> Dict[str, Any]:
        """Stable plain-dict form (see :func:`repro.io.recommendation_to_dict`)."""
        # Imported lazily: repro.io builds on the analysis layer, which the
        # core must not depend on at import time.
        from repro.io import recommendation_to_dict

        return recommendation_to_dict(
            self,
            include_all_candidates=include_all_candidates,
            include_query_statistics=include_query_statistics,
        )


class Warlock:
    """The data allocation advisor (compatibility wrapper over a session).

    Parameters
    ----------
    schema:
        Star schema (dimensions with hierarchy cardinalities, fact tables with
        row counts and sizes, optional skew).
    workload:
        Weighted star-query mix.
    system:
        DBS & disk parameters.
    config:
        Advisor tunables; defaults follow the paper.
    fact_table:
        Name of the fact table to fragment; the schema's primary fact table
        when omitted.
    options:
        Execution options (:class:`repro.api.EngineOptions`): worker count,
        vectorization, caching, persistent store directory and spill policy.
        Defaults to serial, vectorized, cached, memory-only.
    cache:
        A concrete :class:`repro.engine.EvaluationCache` instance to share
        evaluations across advisors/sessions (what-if tuning does).  ``None``
        (default) creates a private bounded cache when ``options.cache`` is
        true.
    """

    def __init__(
        self,
        schema: StarSchema,
        workload: QueryMix,
        system: SystemParameters,
        config: Optional[AdvisorConfig] = None,
        fact_table: Optional[str] = None,
        cache: Any = None,
        options: Optional["EngineOptions"] = None,  # noqa: F821
    ) -> None:
        # Imported lazily: repro.api sits above the core in the layer stack
        # (its session imports this module).
        from repro.api.session import AdvisorSession

        self._session = AdvisorSession(
            schema,
            workload,
            system,
            config=config,
            fact_table=fact_table,
            options=options,
            cache=cache,
        )

    # -- session views ----------------------------------------------------------

    @property
    def session(self):
        """The underlying :class:`repro.api.AdvisorSession`."""
        return self._session

    @property
    def schema(self) -> StarSchema:
        return self._session.schema

    @property
    def workload(self) -> QueryMix:
        return self._session.workload

    @property
    def system(self) -> SystemParameters:
        return self._session.system

    @property
    def config(self) -> AdvisorConfig:
        return self._session.config

    @property
    def fact(self):
        return self._session.fact

    @property
    def schema_warnings(self):
        return self._session.schema_warnings

    @property
    def options(self):
        """The session's :class:`repro.api.EngineOptions`."""
        return self._session.options

    @property
    def cache(self):
        return self._session.cache

    # -- candidate generation ---------------------------------------------------

    def generate_specs(self) -> Tuple[List[FragmentationSpec], ExclusionReport]:
        """Enumerate point fragmentations and apply the exclusion thresholds."""
        return self._session.generate_specs()

    # -- evaluation -------------------------------------------------------------

    def design_bitmaps(self) -> BitmapScheme:
        """Design the workload-driven bitmap scheme (shared across candidates)."""
        return self._session.design_bitmaps()

    def engine(self):
        """The candidate-evaluation engine bound to this advisor's inputs."""
        return self._session.engine

    def persist_cache(self) -> Optional[int]:
        """Spill the evaluation cache to its persistent store, if one is attached.

        The engine already persists after every sweep; this flushes anything
        accumulated since (e.g. by tuning studies sharing the cache).  Returns
        the number of entries written, or ``None`` when there is no attached
        store, nothing new to save, the store is unwritable, or
        ``options.persist`` is false (the store is read-only).
        """
        return self._session.persist_cache()

    def evaluate_spec(
        self,
        spec: FragmentationSpec,
        bitmap_scheme: Optional[BitmapScheme] = None,
    ) -> FragmentationCandidate:
        """Fully evaluate a single fragmentation candidate."""
        return self._session.evaluate_spec(spec, bitmap_scheme=bitmap_scheme)

    def evaluate_candidates(
        self,
        specs: Optional[List[FragmentationSpec]] = None,
        on_progress=None,
        cancel=None,
    ) -> Tuple[List[FragmentationCandidate], ExclusionReport]:
        """Evaluate every surviving candidate (or an explicit list of specs).

        The sweep runs through the evaluation engine: serial when
        ``jobs == 1``, on a process pool otherwise, with identical results
        either way.
        """
        if specs is None:
            specs, report = self.generate_specs()
        else:
            report = ExclusionReport()
        if not specs:
            return [], report
        candidates = self._session.engine.evaluate_specs(
            specs, on_progress=on_progress, cancel=cancel
        )
        return candidates, report

    # -- recommendation ---------------------------------------------------------

    def recommend(self, on_progress=None, cancel=None) -> Recommendation:
        """Run the full pipeline and return the ranked recommendation.

        ``on_progress`` receives one :class:`repro.api.ProgressEvent` per
        completed evaluation chunk; ``cancel`` (a
        :class:`repro.api.CancellationToken` or a zero-argument callable)
        aborts the sweep at the next chunk boundary with
        :class:`~repro.errors.EvaluationCancelled`.
        """
        return self._session.recommend(
            on_progress=on_progress, cancel=cancel
        ).recommendation

    # -- analysis convenience ---------------------------------------------------

    def analyze(self, candidate: FragmentationCandidate) -> str:
        """Render the detailed per-query-class statistic for ``candidate``.

        Thin convenience wrapper over :func:`repro.analysis.format_query_analysis`
        (imported lazily to keep the core free of presentation dependencies).
        """
        from repro.analysis import format_query_analysis

        return format_query_analysis(candidate, self.workload)
