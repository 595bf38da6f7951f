"""What-if studies over a fixed fragmentation.

Every study follows the same pattern: keep the schema, workload and
fragmentation fixed, vary exactly one input (disk count, architecture, prefetch
granule, bitmap exclusions, skew, query weights), re-run the evaluation and
collect the headline metrics per setting.  The result is a
:class:`TuningStudy`, which knows how to render itself as a text table and how
to report the best setting for a chosen metric.

Every study shares one :class:`repro.engine.EvaluationCache` across its
settings (pass ``cache=`` to share it across *studies* too, e.g. with the
advisor run that produced the spec).  Settings that leave the access structure
unchanged — varied weights, architectures, coordination overheads — then reuse
the memoized estimation instead of recomputing it; the cache key covers every
input that can change a number, so the reuse is always exact.

Pass ``options=EngineOptions(cache_dir=...)`` to back the study cache with a
persistent :class:`repro.engine.CacheStore`: the study then warm-starts from
evaluations earlier *processes* spilled to that directory (typically the
``recommend`` run that produced the spec) and spills its own settings back
for the next session.  A cache that is already attached to a store keeps it,
so :meth:`repro.api.AdvisorSession.tune` simply hands the session's
store-backed cache to every study.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core import AdvisorConfig
from repro.errors import AdvisorError
from repro.fragmentation import FragmentationSpec
from repro.schema import StarSchema
from repro.storage import SystemParameters
from repro.workload import QueryMix

__all__ = [
    "TuningStudy",
    "disk_count_study",
    "architecture_study",
    "prefetch_study",
    "bitmap_exclusion_study",
    "skew_study",
    "workload_weight_study",
]

#: Metric columns every study records per setting.
_METRIC_COLUMNS = (
    "io_cost_ms",
    "response_time_ms",
    "pages_accessed",
    "io_requests",
    "bitmap_pages",
    "occupancy_cv",
    "allocation_scheme",
)


@dataclass(frozen=True)
class TuningStudy:
    """Result of one what-if study.

    ``records`` maps the varied setting (rendered as a string) to the metric
    dict of the candidate evaluated under that setting.
    """

    name: str
    parameter: str
    records: Tuple[Tuple[str, Dict[str, object]], ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.records:
            raise AdvisorError(f"tuning study {self.name!r} has no records")

    @property
    def settings(self) -> List[str]:
        """The varied settings, in evaluation order."""
        return [setting for setting, _ in self.records]

    def metrics_for(self, setting: str) -> Dict[str, object]:
        """Metric record of one setting."""
        for candidate_setting, record in self.records:
            if candidate_setting == setting:
                return record
        raise AdvisorError(f"study {self.name!r} has no setting {setting!r}")

    def best_setting(self, metric: str = "response_time_ms") -> str:
        """Setting minimizing ``metric`` (ties resolved towards the earlier setting)."""
        numeric = [
            (setting, record[metric])
            for setting, record in self.records
            if isinstance(record.get(metric), (int, float))
        ]
        if not numeric:
            raise AdvisorError(
                f"study {self.name!r} has no numeric values for metric {metric!r}"
            )
        return min(numeric, key=lambda item: item[1])[0]

    def series(self, metric: str) -> List[Tuple[str, float]]:
        """(setting, value) pairs of a numeric metric, in evaluation order."""
        return [
            (setting, float(record[metric]))
            for setting, record in self.records
            if isinstance(record.get(metric), (int, float))
        ]

    def format(self) -> str:
        """Render the study as a text table."""
        from repro.analysis import format_table

        headers = [self.parameter, "I/O cost [ms]", "response [ms]", "pages/query",
                   "I/O requests", "bitmap pages", "occupancy CV", "allocation"]
        rows = []
        for setting, record in self.records:
            rows.append(
                [
                    setting,
                    f"{record['io_cost_ms']:,.0f}",
                    f"{record['response_time_ms']:,.0f}",
                    f"{record['pages_accessed']:,.0f}",
                    f"{record['io_requests']:,.0f}",
                    f"{record['bitmap_pages']:,}",
                    f"{record['occupancy_cv']:.3f}",
                    str(record["allocation_scheme"]),
                ]
            )
        return f"{self.name}\n{format_table(headers, rows)}"

    def to_dict(self) -> Dict[str, object]:
        """Stable plain-dict form (JSON-ready) for serving study results."""
        return {
            "name": self.name,
            "parameter": self.parameter,
            "records": [
                {"setting": setting, "metrics": dict(record)}
                for setting, record in self.records
            ],
        }


def _candidate_metrics(candidate) -> Dict[str, object]:
    """Extract the standard metric record from an evaluated candidate."""
    summary = candidate.summary()
    return {column: summary[column] for column in _METRIC_COLUMNS}


def _study_setup(options, cache):
    """A study's engine options and its shared evaluation cache.

    The cache is validated and, with ``options.cache_dir``, attached to the
    persistent store of that directory by the engine of the first setting
    (warm-start there, spill at the end of the study); attaching is a no-op
    when ``cache`` already carries a store for the same directory.
    """
    # Imported lazily: repro.api sits above the tuning layer (its session
    # dispatches to these studies).
    from repro.api.options import EngineOptions
    from repro.engine import EvaluationCache

    options = options if options is not None else EngineOptions()
    cache = cache if cache is not None else EvaluationCache()
    return options, cache


def _check_cancel(cancel) -> None:
    """Abort a study at a setting boundary when its cancel signal is set.

    Settings are a study's chunks: everything evaluated before the cancel is
    already recorded in the shared cache and stays valid for a retry.
    """
    if cancel is None:
        return
    from repro.api.progress import cancel_requested
    from repro.errors import EvaluationCancelled

    if cancel_requested(cancel):
        raise EvaluationCancelled("tuning study cancelled between settings")


def _notify_setting(on_progress, completed: int, total: int, label: str) -> None:
    """Emit one per-setting progress event (settings are a study's chunks).

    The unit accounting is per setting — a study evaluates one candidate per
    setting, so candidates, chunks and units all count settings here.
    """
    if on_progress is None:
        return
    from repro.api.progress import ProgressEvent

    on_progress(
        ProgressEvent(
            phase="study",
            completed=completed,
            total=total,
            chunk=completed,
            num_chunks=total,
            completed_units=completed,
            total_units=total,
            label=label,
        )
    )


def _finish(cache, options) -> None:
    """Spill the study's new entries to the attached store (persist policy)."""
    if options.persist:
        cache.persist()


def _evaluate(
    schema: StarSchema,
    workload: QueryMix,
    system: SystemParameters,
    spec: FragmentationSpec,
    config: Optional[AdvisorConfig],
    bitmap_exclude: Sequence[Tuple[str, str]] = (),
    cache=None,
    options=None,
):
    """Evaluate ``spec`` under one concrete input setting."""
    # Imported lazily: repro.api sits above the tuning layer (its results
    # module imports this package).
    from repro.api.session import AdvisorSession

    session = AdvisorSession(
        schema, workload, system, config, cache=cache, options=options
    )
    scheme = session.design_bitmaps()
    if bitmap_exclude:
        scheme = scheme.without(*bitmap_exclude)
    return session.evaluate_spec(spec, scheme)


def disk_count_study(
    schema: StarSchema,
    workload: QueryMix,
    system: SystemParameters,
    spec: FragmentationSpec,
    disk_counts: Sequence[int] = (8, 16, 32, 64, 128),
    config: Optional[AdvisorConfig] = None,
    cache=None,
    options=None,
    cancel=None,
    on_progress=None,
) -> TuningStudy:
    """Vary the number of disks (the classic scale-out question)."""
    if not disk_counts:
        raise AdvisorError("disk_count_study needs at least one disk count")
    options, cache = _study_setup(options, cache)
    records = []
    for disks in disk_counts:
        _check_cancel(cancel)
        candidate = _evaluate(
            schema,
            workload,
            system.with_disks(disks),
            spec,
            config,
            cache=cache,
            options=options,
        )
        records.append((str(disks), _candidate_metrics(candidate)))
        _notify_setting(on_progress, len(records), len(disk_counts), str(disks))
    _finish(cache, options)
    return TuningStudy(
        name=f"Disk-count study for {spec.label}",
        parameter="disks",
        records=tuple(records),
    )


def architecture_study(
    schema: StarSchema,
    workload: QueryMix,
    system: SystemParameters,
    spec: FragmentationSpec,
    config: Optional[AdvisorConfig] = None,
    cache=None,
    options=None,
    cancel=None,
    on_progress=None,
) -> TuningStudy:
    """Compare Shared Everything and Shared Disk for the same fragmentation."""
    options, cache = _study_setup(options, cache)
    records = []
    for architecture in ("shared_everything", "shared_disk"):
        _check_cancel(cancel)
        candidate = _evaluate(
            schema,
            workload,
            system.with_architecture(architecture),
            spec,
            config,
            cache=cache,
            options=options,
        )
        records.append((architecture, _candidate_metrics(candidate)))
        _notify_setting(on_progress, len(records), 2, architecture)
    _finish(cache, options)
    return TuningStudy(
        name=f"Architecture study for {spec.label}",
        parameter="architecture",
        records=tuple(records),
    )


def prefetch_study(
    schema: StarSchema,
    workload: QueryMix,
    system: SystemParameters,
    spec: FragmentationSpec,
    fact_granules: Sequence[Union[int, str]] = (1, 4, 16, 64, 256, "auto"),
    config: Optional[AdvisorConfig] = None,
    cache=None,
    options=None,
    cancel=None,
    on_progress=None,
) -> TuningStudy:
    """Vary the fact-table prefetch granule (bitmap granule stays on auto)."""
    if not fact_granules:
        raise AdvisorError("prefetch_study needs at least one granule")
    options, cache = _study_setup(options, cache)
    records = []
    for granule in fact_granules:
        _check_cancel(cancel)
        varied = system.with_prefetch(fact=granule)
        candidate = _evaluate(
            schema, workload, varied, spec, config, cache=cache, options=options
        )
        label = "auto" if isinstance(granule, str) else f"{granule} pages"
        record = _candidate_metrics(candidate)
        record["resolved_fact_granule"] = candidate.prefetch.fact_pages
        records.append((label, record))
        _notify_setting(on_progress, len(records), len(fact_granules), label)
    _finish(cache, options)
    return TuningStudy(
        name=f"Prefetch study for {spec.label}",
        parameter="fact prefetch",
        records=tuple(records),
    )


def bitmap_exclusion_study(
    schema: StarSchema,
    workload: QueryMix,
    system: SystemParameters,
    spec: FragmentationSpec,
    exclusions: Sequence[Sequence[Tuple[str, str]]] = ((),),
    config: Optional[AdvisorConfig] = None,
    cache=None,
    options=None,
    cancel=None,
    on_progress=None,
) -> TuningStudy:
    """Vary the set of excluded bitmap indexes (the space-saving knob of §3.3)."""
    if not exclusions:
        raise AdvisorError("bitmap_exclusion_study needs at least one exclusion set")
    options, cache = _study_setup(options, cache)
    records = []
    for excluded in exclusions:
        _check_cancel(cancel)
        excluded = tuple(excluded)
        candidate = _evaluate(
            schema,
            workload,
            system,
            spec,
            config,
            bitmap_exclude=excluded,
            cache=cache,
            options=options,
        )
        label = (
            "all suggested indexes"
            if not excluded
            else "without " + ", ".join(f"{d}.{l}" for d, l in excluded)
        )
        records.append((label, _candidate_metrics(candidate)))
        _notify_setting(on_progress, len(records), len(exclusions), label)
    _finish(cache, options)
    return TuningStudy(
        name=f"Bitmap exclusion study for {spec.label}",
        parameter="bitmap scheme",
        records=tuple(records),
    )


def skew_study(
    schema_factory,
    workload: QueryMix,
    system: SystemParameters,
    spec: FragmentationSpec,
    thetas: Sequence[float] = (0.0, 0.5, 1.0),
    config: Optional[AdvisorConfig] = None,
    cache=None,
    options=None,
    cancel=None,
    on_progress=None,
) -> TuningStudy:
    """Vary the data skew.

    ``schema_factory`` is a callable mapping a Zipf theta to a schema (for
    instance ``lambda theta: apb1_schema(skew={"product": theta})``), because
    skew is a schema property rather than a system parameter.
    """
    if not thetas:
        raise AdvisorError("skew_study needs at least one theta")
    options, cache = _study_setup(options, cache)
    records = []
    for theta in thetas:
        _check_cancel(cancel)
        schema = schema_factory(theta)
        candidate = _evaluate(
            schema, workload, system, spec, config, cache=cache, options=options
        )
        records.append((f"{theta:.2f}", _candidate_metrics(candidate)))
        _notify_setting(on_progress, len(records), len(thetas), f"{theta:.2f}")
    _finish(cache, options)
    return TuningStudy(
        name=f"Skew study for {spec.label}",
        parameter="zipf theta",
        records=tuple(records),
    )


def workload_weight_study(
    schema: StarSchema,
    workload: QueryMix,
    system: SystemParameters,
    spec: FragmentationSpec,
    reweightings: Dict[str, Dict[str, float]],
    config: Optional[AdvisorConfig] = None,
    cache=None,
    options=None,
    cancel=None,
    on_progress=None,
) -> TuningStudy:
    """Vary the query-class weights ("query load specifics can be adapted").

    ``reweightings`` maps a label to the weight overrides passed to
    :meth:`repro.workload.QueryMix.reweighted`.  The unmodified mix is always
    evaluated first under the label ``"baseline"``.
    """
    options, cache = _study_setup(options, cache)
    records = []
    _check_cancel(cancel)
    baseline = _evaluate(
        schema, workload, system, spec, config, cache=cache, options=options
    )
    records.append(("baseline", _candidate_metrics(baseline)))
    _notify_setting(on_progress, 1, 1 + len(reweightings), "baseline")
    for label, weights in reweightings.items():
        _check_cancel(cancel)
        candidate = _evaluate(
            schema,
            workload.reweighted(weights),
            system,
            spec,
            config,
            cache=cache,
            options=options,
        )
        records.append((label, _candidate_metrics(candidate)))
        _notify_setting(on_progress, len(records), 1 + len(reweightings), label)
    _finish(cache, options)
    return TuningStudy(
        name=f"Workload weight study for {spec.label}",
        parameter="workload",
        records=tuple(records),
    )
