"""What-if studies over a fixed fragmentation.

Every study keeps the schema, workload and fragmentation fixed, varies
exactly one input (disk count, architecture, prefetch granule, bitmap
exclusions, skew, query weights) and records the headline metrics of the
candidate evaluated under each setting.  A :class:`Study` defines one study:
its stock settings, the settings a request may send, the label of a setting
and the :meth:`repro.api.AdvisorSession.with_delta` edit that applies it.
:func:`run_study` is the one loop every study runs.  It derives each setting
from one base session, so the settings share its evaluation cache (and the
persistent store of ``options=EngineOptions(cache_dir=...)``): a setting that
leaves the access structure unchanged reuses the memoized estimation, and the
content-addressed cache keys make every reuse exact.  The result is a
:class:`TuningStudy`, which renders itself as a text table and reports the
best setting for a chosen metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core import AdvisorConfig
from repro.errors import AdvisorError, EvaluationCancelled
from repro.fragmentation import FragmentationSpec
from repro.schema import StarSchema
from repro.storage import SystemParameters
from repro.workload import QueryMix

__all__ = [
    "TuningStudy",
    "Study",
    "STUDIES",
    "run_study",
    "requested_study",
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


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _list_of(check: Callable[[Any], bool]) -> Callable[[Any], bool]:
    """A settings check: a list (or tuple) whose items all pass ``check``."""
    return lambda value: isinstance(value, (list, tuple)) and all(map(check, value))


def _is_pair(value: Any) -> bool:
    """A ``(dimension, level)`` pair of strings."""
    return _list_of(lambda part: isinstance(part, str))(value) and len(value) == 2


@dataclass(frozen=True)
class Study:
    """What one what-if study varies, and how a setting edits the inputs.

    ``edit`` maps a setting to the :meth:`repro.api.AdvisorSession.with_delta`
    keywords that apply it, and ``exclude`` to the ``(dimension, level)``
    bitmap indexes it drops; a setting with an empty edit evaluates on the
    base session itself.  ``label`` names a setting in the result and
    ``record`` reads its metrics off the evaluated candidate.  ``stock`` is
    the sweep a request without settings runs, ``form`` names the settings a
    request may send (``None``: none) and ``fits`` checks them; ``expand``
    turns them into the loop's settings.  ``needs`` is the error of an empty
    sweep.
    """

    title: str
    parameter: str
    edit: Callable[[Any], Dict[str, Any]] = lambda setting: {}
    exclude: Callable[[Any], Tuple[Tuple[str, str], ...]] = lambda setting: ()
    label: Callable[[Any], str] = str
    record: Callable[[Any], Dict[str, object]] = _candidate_metrics
    stock: Optional[Tuple[Any, ...]] = None
    needs: str = ""
    form: Optional[str] = None
    fits: Callable[[Any], bool] = lambda settings: False
    expand: Callable[[Any], Sequence[Any]] = tuple


DISKS = Study(
    "Disk-count study",
    "disks",
    edit=lambda disks: {"disks": disks},
    stock=(8, 16, 32, 64, 128),
    needs="disk_count_study needs at least one disk count",
    form="a list of disk counts",
    fits=_list_of(_is_int),
)
ARCHITECTURE = Study(
    "Architecture study",
    "architecture",
    edit=lambda architecture: {"architecture": architecture},
    stock=("shared_everything", "shared_disk"),
)
PREFETCH = Study(
    "Prefetch study",
    "fact prefetch",
    edit=lambda granule: {"prefetch_fact": granule},
    label=lambda granule: "auto" if isinstance(granule, str) else f"{granule} pages",
    # The granule an "auto" setting resolved to.
    record=lambda candidate: {
        **_candidate_metrics(candidate),
        "resolved_fact_granule": candidate.prefetch.fact_pages,
    },
    stock=(1, 4, 16, 64, 256, "auto"),
    needs="prefetch_study needs at least one granule",
    form='a list of fact prefetch granules (page counts or "auto")',
    fits=_list_of(lambda granule: _is_int(granule) or isinstance(granule, str)),
)
BITMAPS = Study(
    "Bitmap exclusion study",
    "bitmap scheme",
    exclude=lambda excluded: tuple(map(tuple, excluded)),
    label=lambda excluded: (
        "without " + ", ".join(f"{d}.{l}" for d, l in excluded)
        if excluded
        else "all suggested indexes"
    ),
    stock=((),),
    needs="bitmap_exclusion_study needs at least one exclusion set",
    form="a list of exclusion sets, each a list of [dimension, level] pairs",
    fits=_list_of(_list_of(_is_pair)),
)
#: A setting is a ``(label, weight overrides)`` pair; the unmodified mix runs
#: first as ``("baseline", None)``, on the base session.
WEIGHTS = Study(
    "Workload weight study",
    "workload",
    edit=lambda setting: {} if setting[1] is None else {"mix_weights": setting[1]},
    label=lambda setting: setting[0],
    needs=(
        'the "weights" study needs settings mapping a label to '
        "the weight overrides, e.g. {'drill-heavy': {'q1': 10.0}}"
    ),
    form="an object mapping a label to {query class: weight} overrides",
    fits=lambda settings: isinstance(settings, Mapping) and all(
        isinstance(weights, Mapping)
        and all(_is_int(w) or isinstance(w, float) for w in weights.values())
        for weights in settings.values()
    ),
    expand=lambda reweightings: (
        ("baseline", None),
        *((label, dict(weights)) for label, weights in reweightings.items()),
    ),
)
#: Skew is a schema property: :func:`skew_study` supplies the edit from its
#: schema factory, so no request can name this study.
SKEW = Study(
    "Skew study",
    "zipf theta",
    label="{:.2f}".format,
    stock=(0.0, 0.5, 1.0),
    needs="skew_study needs at least one theta",
)

#: The studies :meth:`repro.api.AdvisorSession.tune` and
#: :class:`repro.api.TuneRequest` name.
STUDIES: Dict[str, Study] = {
    "disks": DISKS,
    "architecture": ARCHITECTURE,
    "prefetch": PREFETCH,
    "bitmaps": BITMAPS,
    "weights": WEIGHTS,
}


def requested_study(name: Any, settings: Any = None) -> Study:
    """The :data:`STUDIES` entry a request names, once its ``settings`` fit the form."""
    study = STUDIES.get(name) if isinstance(name, str) else None
    if study is None:
        raise AdvisorError(
            f"unknown tuning study {name!r}; known studies: {', '.join(STUDIES)}"
        )
    if settings is not None and not study.fits(settings):
        takes = f"settings as {study.form}" if study.form else "no settings"
        raise AdvisorError(f'the "{name}" study takes {takes}, got {settings!r}')
    return study


def run_study(
    study: Study,
    base,
    spec: FragmentationSpec,
    settings: Sequence[Any],
    cancel=None,
    on_progress=None,
) -> TuningStudy:
    """Evaluate ``spec`` under every setting of ``study``, derived from ``base``.

    ``base`` is an :class:`~repro.api.AdvisorSession`.  Per setting, in
    order, the loop polls ``cancel``, applies the setting's edit with
    :meth:`~repro.api.AdvisorSession.with_delta`, evaluates ``spec``,
    records the metrics and emits one ``phase="study"`` progress event.
    Settings are a study's chunks: everything evaluated before a cancel
    stays cached for a retry.  A finished study flushes the cache exactly
    when ``base.persist_cache()`` would.
    """
    # Imported lazily: repro.api sits above the tuning layer (its session
    # runs this loop).
    from repro.api.progress import ProgressEvent, cancel_requested

    settings = tuple(settings)
    if not settings:
        raise AdvisorError(study.needs)
    total = len(settings)
    records = []
    for done, setting in enumerate(settings, 1):
        if cancel_requested(cancel):
            raise EvaluationCancelled("tuning study cancelled between settings")
        edit = study.edit(setting)
        session = base.with_delta(**edit) if edit else base
        excluded = study.exclude(setting)
        scheme = session.design_bitmaps().without(*excluded) if excluded else None
        label = study.label(setting)
        records.append((label, study.record(session.evaluate_spec(spec, scheme))))
        if on_progress is not None:
            # One candidate per setting: candidates, chunks and units all
            # count settings.
            on_progress(
                ProgressEvent(
                    phase="study",
                    completed=done,
                    total=total,
                    chunk=done,
                    num_chunks=total,
                    completed_units=done,
                    total_units=total,
                    label=label,
                )
            )
    base.persist_cache()
    return TuningStudy(
        name=f"{study.title} for {spec.label}",
        parameter=study.parameter,
        records=tuple(records),
    )


def _session(schema, workload, system, config, cache, options):
    """The base session a study function derives its settings from."""
    # Imported lazily: repro.api sits above the tuning layer.
    from repro.api.session import AdvisorSession

    return AdvisorSession(schema, workload, system, config, options=options, cache=cache)


def disk_count_study(
    schema: StarSchema,
    workload: QueryMix,
    system: SystemParameters,
    spec: FragmentationSpec,
    disk_counts: Sequence[int] = DISKS.stock,
    config: Optional[AdvisorConfig] = None,
    cache=None,
    options=None,
    cancel=None,
    on_progress=None,
) -> TuningStudy:
    """Vary the number of disks (the classic scale-out question)."""
    base = _session(schema, workload, system, config, cache, options)
    return run_study(DISKS, base, spec, disk_counts, cancel, on_progress)


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
    base = _session(schema, workload, system, config, cache, options)
    return run_study(ARCHITECTURE, base, spec, ARCHITECTURE.stock, cancel, on_progress)


def prefetch_study(
    schema: StarSchema,
    workload: QueryMix,
    system: SystemParameters,
    spec: FragmentationSpec,
    fact_granules: Sequence[Union[int, str]] = PREFETCH.stock,
    config: Optional[AdvisorConfig] = None,
    cache=None,
    options=None,
    cancel=None,
    on_progress=None,
) -> TuningStudy:
    """Vary the fact-table prefetch granule (bitmap granule stays on auto)."""
    base = _session(schema, workload, system, config, cache, options)
    return run_study(PREFETCH, base, spec, fact_granules, cancel, on_progress)


def bitmap_exclusion_study(
    schema: StarSchema,
    workload: QueryMix,
    system: SystemParameters,
    spec: FragmentationSpec,
    exclusions: Sequence[Sequence[Tuple[str, str]]] = BITMAPS.stock,
    config: Optional[AdvisorConfig] = None,
    cache=None,
    options=None,
    cancel=None,
    on_progress=None,
) -> TuningStudy:
    """Vary the set of excluded bitmap indexes (the space-saving knob of §3.3)."""
    base = _session(schema, workload, system, config, cache, options)
    return run_study(BITMAPS, base, spec, exclusions, cancel, on_progress)


def skew_study(
    schema_factory,
    workload: QueryMix,
    system: SystemParameters,
    spec: FragmentationSpec,
    thetas: Sequence[float] = SKEW.stock,
    config: Optional[AdvisorConfig] = None,
    cache=None,
    options=None,
    cancel=None,
    on_progress=None,
) -> TuningStudy:
    """Vary the data skew.

    ``schema_factory`` is a callable mapping a Zipf theta to a schema (for
    instance ``lambda theta: apb1_schema(skew={"product": theta})``), because
    skew is a schema property rather than a system parameter.  The base
    session is built on the first theta's schema.
    """
    if not thetas:
        raise AdvisorError(SKEW.needs)
    study = replace(SKEW, edit=lambda theta: {"schema": schema_factory(theta)})
    base = _session(schema_factory(thetas[0]), workload, system, config, cache, options)
    return run_study(study, base, spec, thetas, cancel, on_progress)


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
    base = _session(schema, workload, system, config, cache, options)
    return run_study(
        WEIGHTS, base, spec, WEIGHTS.expand(reweightings), cancel, on_progress
    )
