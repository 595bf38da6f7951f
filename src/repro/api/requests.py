"""Typed requests an :class:`~repro.api.AdvisorSession` serves.

Each request is a small frozen dataclass describing *what* the caller wants —
a recommendation, a single-spec evaluation, a comparison, a what-if study, a
simulated replay — with none of the *how* (cost path, caches, progress
plumbing), which lives in the session's :class:`~repro.api.EngineOptions`.
Requests are plain values: hashable, comparable, and serializable through
``to_dict`` / ``from_dict``, so a service front end can accept them straight
off a wire and hand them to :meth:`AdvisorSession.submit`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.errors import AdvisorError
from repro.fragmentation import FragmentationSpec

__all__ = [
    "RecommendRequest",
    "EvaluateSpecRequest",
    "CompareRequest",
    "TuneRequest",
    "SimulateRequest",
    "TUNE_STUDIES",
]

#: Study names :class:`TuneRequest` accepts, mapped by the session onto the
#: corresponding :mod:`repro.tuning` study (see ``AdvisorSession.tune``).
TUNE_STUDIES = ("disks", "architecture", "prefetch", "bitmaps", "weights")

#: The ``settings`` shape each study accepts (``architecture`` takes none).
_SETTINGS_FORMS = {
    "disks": "a list of disk counts",
    "prefetch": 'a list of fact prefetch granules (page counts or "auto")',
    "bitmaps": "a list of exclusion sets, each a list of [dimension, level] pairs",
    "weights": "an object mapping a label to {query class: weight} overrides",
}


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_pair(value: Any) -> bool:
    """A ``(dimension, level)`` pair of strings."""
    return (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(isinstance(part, str) for part in value)
    )


def _settings_fit(study: str, settings: Any) -> bool:
    """True when ``settings`` has the shape :data:`_SETTINGS_FORMS` names."""
    if settings is None or study == "architecture":
        return True
    if study == "weights":
        return isinstance(settings, Mapping) and all(
            isinstance(weights, Mapping)
            and all(
                isinstance(weight, (int, float)) and not isinstance(weight, bool)
                for weight in weights.values()
            )
            for weights in settings.values()
        )
    if not isinstance(settings, (list, tuple)):
        return False
    if study == "disks":
        return all(_is_int(count) for count in settings)
    if study == "prefetch":
        return all(_is_int(granule) or isinstance(granule, str) for granule in settings)
    return all(
        isinstance(excluded, (list, tuple)) and all(map(_is_pair, excluded))
        for excluded in settings
    )


def _spec_dict(spec: FragmentationSpec) -> Dict[str, Any]:
    return {
        "attributes": [
            {"dimension": attribute.dimension, "level": attribute.level}
            for attribute in spec.attributes
        ]
    }


def _spec_from_dict(raw: Any) -> FragmentationSpec:
    # The key is required: a spec object without it names no candidate, and
    # the unfragmented spec is written {"attributes": []}.
    attributes = raw.get("attributes") if isinstance(raw, Mapping) else None
    if not isinstance(attributes, (list, tuple)) or not all(
        isinstance(attribute, Mapping)
        and isinstance(attribute.get("dimension"), str)
        and isinstance(attribute.get("level"), str)
        for attribute in attributes
    ):
        raise AdvisorError(
            'a fragmentation spec must be an object whose "attributes" is a '
            'list of {"dimension": ..., "level": ...} string pairs, '
            f"got {raw!r}"
        )
    return FragmentationSpec.of(
        *((attribute["dimension"], attribute["level"]) for attribute in attributes)
    )


@dataclass(frozen=True)
class RecommendRequest:
    """Run the full pipeline: enumerate, exclude, evaluate, rank."""

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": "recommend"}


@dataclass(frozen=True)
class EvaluateSpecRequest:
    """Fully evaluate one fragmentation candidate.

    ``bitmap_exclude`` drops the listed ``(dimension, level)`` indexes from
    the workload-driven bitmap scheme before evaluating (the space-saving
    knob of the paper's §3.3).
    """

    spec: FragmentationSpec
    bitmap_exclude: Tuple[Tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        pairs = self.bitmap_exclude
        if not isinstance(pairs, (list, tuple)) or not all(map(_is_pair, pairs)):
            raise AdvisorError(
                f"bitmap_exclude must be a list of [dimension, level] pairs, "
                f"got {pairs!r}"
            )
        object.__setattr__(self, "bitmap_exclude", tuple(map(tuple, pairs)))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": "evaluate_spec",
            "spec": _spec_dict(self.spec),
            "bitmap_exclude": [list(pair) for pair in self.bitmap_exclude],
        }


@dataclass(frozen=True)
class CompareRequest:
    """Evaluate several specs and render the side-by-side comparison."""

    specs: Tuple[FragmentationSpec, ...]
    baseline_spec: Optional[FragmentationSpec] = None

    def __post_init__(self) -> None:
        specs = tuple(self.specs)
        if not specs:
            raise AdvisorError("CompareRequest needs at least one spec")
        object.__setattr__(self, "specs", specs)

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "kind": "compare",
            "specs": [_spec_dict(spec) for spec in self.specs],
        }
        if self.baseline_spec is not None:
            payload["baseline_spec"] = _spec_dict(self.baseline_spec)
        return payload


@dataclass(frozen=True)
class TuneRequest:
    """Run one what-if study over a fixed fragmentation.

    ``study`` is one of :data:`TUNE_STUDIES`; ``settings`` carries the varied
    values (disk counts, prefetch granules, bitmap exclusion sets, or the
    weight reweightings mapping) and defaults to the study's stock sweep.
    ``spec`` defaults to the session's recommended fragmentation.
    """

    study: str
    spec: Optional[FragmentationSpec] = None
    settings: Any = None

    def __post_init__(self) -> None:
        if self.study not in TUNE_STUDIES:
            raise AdvisorError(
                f"unknown tuning study {self.study!r}; "
                f"known studies: {', '.join(TUNE_STUDIES)}"
            )
        if not _settings_fit(self.study, self.settings):
            raise AdvisorError(
                f'the "{self.study}" study takes settings as '
                f"{_SETTINGS_FORMS[self.study]}, got {self.settings!r}"
            )

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"kind": "tune", "study": self.study}
        if self.spec is not None:
            payload["spec"] = _spec_dict(self.spec)
        if self.settings is not None:
            payload["settings"] = self.settings
        return payload


@dataclass(frozen=True)
class SimulateRequest:
    """Monte-Carlo replay of the workload on an evaluated candidate.

    ``fragmentation`` is the label of the candidate to replay (the session's
    recommended one when omitted).
    """

    fragmentation: Optional[str] = None
    queries_per_class: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if not _is_int(self.queries_per_class) or self.queries_per_class < 1:
            raise AdvisorError(
                f"queries_per_class must be a positive integer, "
                f"got {self.queries_per_class!r}"
            )
        if not _is_int(self.seed) or self.seed < 0:
            raise AdvisorError(
                f"seed must be a non-negative integer, got {self.seed!r}"
            )

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "kind": "simulate",
            "queries_per_class": self.queries_per_class,
            "seed": self.seed,
        }
        if self.fragmentation is not None:
            payload["fragmentation"] = self.fragmentation
        return payload


_REQUEST_KINDS = {
    "recommend": RecommendRequest,
    "evaluate_spec": EvaluateSpecRequest,
    "compare": CompareRequest,
    "tune": TuneRequest,
    "simulate": SimulateRequest,
}


def request_from_dict(raw: Mapping[str, Any]) -> Any:
    """Rebuild a typed request from its ``to_dict`` form (wire deserialization)."""
    kind = raw.get("kind")
    if kind not in _REQUEST_KINDS:
        raise AdvisorError(
            f"unknown request kind {kind!r}; "
            f"known kinds: {', '.join(sorted(_REQUEST_KINDS))}"
        )
    body = {key: value for key, value in raw.items() if key != "kind"}
    if "spec" in body:
        body["spec"] = _spec_from_dict(body["spec"])
    if "specs" in body:
        body["specs"] = tuple(_spec_from_dict(entry) for entry in body["specs"])
    if "baseline_spec" in body:
        body["baseline_spec"] = _spec_from_dict(body["baseline_spec"])
    return _REQUEST_KINDS[kind](**body)


__all__.append("request_from_dict")
