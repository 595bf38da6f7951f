"""Stable content fingerprints for cache keys and result-parity checks.

Cache keys must identify *inputs by content*, not by object identity: two
sessions built from equal schemas must hit the same cache entries, and one
process must produce store entries a later process can reuse.  All input
objects of the advisor are frozen dataclasses whose auto-generated ``repr``
deterministically encodes every field, so a digest over the repr is a
faithful content fingerprint.  Digests are memoized on the instance (frozen
dataclasses still carry a ``__dict__``), so the repr is rendered once per
object, not once per cache probe.

:func:`recommendation_fingerprint` proves result parity: it is the SHA-1 of
one canonical text of a full :class:`~repro.core.advisor.Recommendation` —
every float at full precision, every allocation vector, every per-class
profile — and the parity tests, the engine benchmark and the service use it
to show that batched, scalar, cached and served runs return identical
results.  The text is exactly what ``json.dumps(recommendation_state(r),
sort_keys=True)`` writes: sorted keys, ``", "`` and ``": "`` separators,
every float as the quoted ``repr`` of a Python float, strings
ASCII-escaped.

:func:`recommendation_state` builds that text's dict tree and is kept as the
test-only reference, the way the scalar cost path stays beside the batched
one.  The fingerprint does not build it: an emitter writes the same text
from each candidate's columns and feeds it to SHA-1 in pieces.
Per-class fields come from the candidate's
:class:`~repro.costmodel.EvaluationColumns` metric block, with one ``repr``
per distinct bit pattern; page vectors are written as runs of equal bit
patterns (so ``0.0``/``-0.0`` and NaN payloads stay distinct); disk ids go
through a fixed-width byte table.  No dict tree, no per-class record and no
whole-text string is built.
"""

from __future__ import annotations

import hashlib
import json
from json.encoder import encode_basestring_ascii
from itertools import chain
from typing import Any, Dict, Iterator, List, Sequence, Tuple, Union

import numpy as np

from repro.costmodel import PROFILE_FLOAT_FIELDS, EvaluationColumns

__all__ = [
    "stable_digest",
    "object_signature",
    "layout_signature",
    "recommendation_state",
    "recommendation_fingerprint",
]

_SIGNATURE_ATTR = "_engine_signature"


def stable_digest(*parts: str) -> str:
    """SHA-1 hex digest over the given string parts (order-sensitive)."""
    digest = hashlib.sha1()
    for part in parts:
        digest.update(part.encode("utf-8"))
        digest.update(b"\x1f")
    return digest.hexdigest()


def object_signature(obj: Any) -> str:
    """Content fingerprint of a (frozen-dataclass) value object.

    The digest covers the type name and the full ``repr``; it is memoized on
    the instance's ``__dict__`` so repeated probes are O(1).
    """
    state = getattr(obj, "__dict__", None)
    if state is not None:
        cached = state.get(_SIGNATURE_ATTR)
        if cached is not None:
            return cached
    signature = stable_digest(type(obj).__name__, repr(obj))
    if state is not None:
        state[_SIGNATURE_ATTR] = signature
    return signature


def layout_signature(layout: Any) -> str:
    """Content fingerprint of a fragmentation layout.

    Derived from the layout's defining fields (schema, fact table, spec, page
    size) rather than its full repr, so the digest ignores lazily cached
    per-fragment arrays.
    """
    state = layout.__dict__
    cached = state.get(_SIGNATURE_ATTR)
    if cached is not None:
        return cached
    signature = stable_digest(
        "FragmentationLayout",
        object_signature(layout.schema),
        layout.fact.name,
        layout.spec.label,
        str(layout.page_size_bytes),
    )
    state[_SIGNATURE_ATTR] = signature
    return signature


def _float_repr(value: float) -> str:
    """Full-precision canonical text of a float (repr round-trips exactly)."""
    return repr(float(value))


def _profile_state(profile: Any) -> Dict[str, Any]:
    return {
        "fragments_accessed": _float_repr(profile.fragments_accessed),
        "fragments_total": profile.fragments_total,
        "rows_in_accessed_fragments": _float_repr(profile.rows_in_accessed_fragments),
        "qualifying_rows": _float_repr(profile.qualifying_rows),
        "fact_pages_per_fragment": _float_repr(profile.fact_pages_per_fragment),
        "fact_pages_accessed": _float_repr(profile.fact_pages_accessed),
        "bitmap_pages_accessed": _float_repr(profile.bitmap_pages_accessed),
        "fact_io_requests": _float_repr(profile.fact_io_requests),
        "bitmap_io_requests": _float_repr(profile.bitmap_io_requests),
        "fact_pages_transferred": _float_repr(profile.fact_pages_transferred),
        "bitmap_pages_transferred": _float_repr(profile.bitmap_pages_transferred),
        "sequential_fact_access": profile.sequential_fact_access,
        "forced_full_scan": profile.forced_full_scan,
        "bitmap_attributes_used": list(map(list, profile.bitmap_attributes_used)),
    }


def _candidate_state(candidate: Any) -> Dict[str, Any]:
    return {
        "label": candidate.label,
        "fragment_count": candidate.fragment_count,
        "io_cost_ms": _float_repr(candidate.io_cost_ms),
        "response_time_ms": _float_repr(candidate.response_time_ms),
        "prefetch": {
            "fact_pages": candidate.prefetch.fact_pages,
            "bitmap_pages": candidate.prefetch.bitmap_pages,
            "fact_policy": candidate.prefetch.fact_policy.value,
            "bitmap_policy": candidate.prefetch.bitmap_policy.value,
        },
        "bitmap_indexes": [
            [index.dimension, index.level] for index in candidate.bitmap_scheme
        ],
        "allocation": {
            "scheme": candidate.allocation.scheme,
            "disk_of_fragment": candidate.allocation.disk_of_fragment.tolist(),
            "fragment_pages": [
                _float_repr(pages)
                for pages in candidate.allocation.fragment_pages.tolist()
            ],
        },
        "per_class": [
            {
                "query_name": cost.query_name,
                "weight": _float_repr(cost.weight),
                "io_cost_ms": _float_repr(cost.io_cost_ms),
                "response_time_ms": _float_repr(cost.response_time_ms),
                "disks_used": cost.disks_used,
                "profile": _profile_state(cost.profile),
            }
            for cost in candidate.evaluation.per_class
        ],
    }


def recommendation_state(recommendation: Any) -> Dict[str, Any]:
    """Canonical, JSON-able deep state of a recommendation.

    Every float is rendered at full ``repr`` precision, so two states compare
    equal exactly when the recommendations are bit-identical.
    """
    return {
        "schema": recommendation.schema.name,
        "considered": recommendation.exclusion_report.considered,
        "excluded": dict(
            sorted(
                (label, list(violations))
                for label, violations in recommendation.exclusion_report.excluded.items()
            )
        ),
        "ranked": [
            {
                "final_rank": ranked.final_rank,
                "io_rank": ranked.io_rank,
                **_candidate_state(ranked.candidate),
            }
            for ranked in recommendation.ranked
        ],
        "evaluated": [
            _candidate_state(candidate) for candidate in recommendation.evaluated
        ],
    }


def recommendation_fingerprint(recommendation: Any) -> str:
    """SHA-1 fingerprint of the canonical text of :func:`recommendation_state`.

    Equal to ``stable_digest("Recommendation", json.dumps(
    recommendation_state(recommendation), sort_keys=True))``; the text is
    emitted from the candidates' columns and hashed in pieces.
    """
    digest = hashlib.sha1(b"Recommendation\x1f")
    for piece in _RecommendationText().pieces(recommendation):
        digest.update(piece)
    digest.update(b"\x1f")
    return digest.hexdigest()


# -- the canonical text, emitted from columns ------------------------------------

#: The reference's ``json.dumps`` settings: sorted keys, default separators,
#: ASCII output.  Renders the small values of the text.
_json = json.JSONEncoder(sort_keys=True).encode

#: A JSON value as encoded pieces: ``bytes`` (or a view of them), a list of
#: such pieces written in turn, or a dict of member values written as an
#: object with sorted keys.
_Text = Union[bytes, memoryview, List[Any], Dict[str, Any]]


def _value(value: Any) -> bytes:
    """The encoded JSON text of a small value."""
    return _json(value).encode("ascii")


def _pieces(text: _Text) -> Iterator[Union[bytes, memoryview]]:
    """The encoded pieces of ``text``, in order."""
    if isinstance(text, dict):
        separator = b"{"
        for key in sorted(text):
            yield separator + encode_basestring_ascii(key).encode("ascii") + b": "
            yield from _pieces(text[key])
            separator = b", "
        yield b"}" if text else b"{}"
    elif isinstance(text, list):
        for piece in text:
            yield from _pieces(piece)
    else:
        yield text


_PROFILE_KEYS = sorted(
    PROFILE_FLOAT_FIELDS
    + (
        "fragments_total",
        "sequential_fact_access",
        "forced_full_scan",
        "bitmap_attributes_used",
    )
)
_CLASS_KEYS = sorted(
    ("query_name", "weight", "io_cost_ms", "response_time_ms", "disks_used", "profile")
)
#: The leaves of one per-class record, in text order.
_CLASS_LEAVES = tuple(
    leaf for key in _CLASS_KEYS for leaf in (_PROFILE_KEYS if key == "profile" else (key,))
)
#: The fixed text around the leaves of one per-class record.  A record is one
#: row of cells: fixed text in the even columns, leaf texts in the odd ones.
_CLASS_FIXED = np.array(
    b"".join(
        _pieces(
            {
                key: dict.fromkeys(_PROFILE_KEYS, b"%s") if key == "profile" else b"%s"
                for key in _CLASS_KEYS
            }
        )
    )
    .decode("ascii")
    .split("%s"),
    dtype=object,
)
_CLASS_CELL = {leaf: 2 * index + 1 for index, leaf in enumerate(_CLASS_LEAVES)}
#: Cells of the metric block's columns (see ``EvaluationColumns.metrics``)
#: followed by the class weight.
_FLOAT_CELLS = [
    _CLASS_CELL[key]
    for key in PROFILE_FLOAT_FIELDS + ("io_cost_ms", "response_time_ms", "weight")
]
_JSON_BOOLS = np.array(["false", "true"], dtype=object)


def _bits(values: Any) -> np.ndarray:
    """The IEEE-754 bit patterns of ``values`` as float64."""
    return np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)


def _float_texts(values: np.ndarray) -> np.ndarray:
    """Quoted ``repr`` of every float of ``values``, as an object array.

    ``repr`` runs once per distinct bit pattern, so ``0.0``/``-0.0`` and NaN
    payloads stay apart.
    """
    bits = _bits(values)
    unique, inverse = np.unique(bits.ravel(), return_inverse=True)
    texts = np.array(
        ['"' + repr(value) + '"' for value in unique.view(np.float64).tolist()],
        dtype=object,
    )
    return texts[inverse.reshape(bits.shape)]


def _attribute_text(attributes: Tuple[Tuple[str, str], ...]) -> str:
    """JSON text of one class's ``bitmap_attributes_used`` pairs."""
    return _json(list(map(list, attributes)))


def _per_class_lists(evaluations: Sequence[EvaluationColumns]) -> Iterator[bytes]:
    """The ``per_class`` text of each evaluation, cut from one table of cells.

    The table has one row per class record of all ``evaluations``, so each
    leaf column is rendered in one pass.  A record's first cell carries the
    ``", "`` separator unless it starts its evaluation's list.
    """
    counts = np.array([columns.num_classes for columns in evaluations], dtype=np.intp)
    ends = np.cumsum(counts)
    cells = np.empty((int(ends[-1]) if len(ends) else 0, 2 * len(_CLASS_FIXED) - 1), dtype=object)
    if len(cells):
        cells[:, 0::2] = _CLASS_FIXED
        cells[:, 0] = ", " + _CLASS_FIXED[0]
        cells[(ends - counts)[counts > 0], 0] = _CLASS_FIXED[0]
        weights = np.concatenate([np.asarray(c.weights, dtype=np.float64) for c in evaluations])
        metrics = np.concatenate([c.metrics for c in evaluations])
        cells[:, _FLOAT_CELLS] = _float_texts(np.column_stack((metrics, weights)))
        cells[:, _CLASS_CELL["disks_used"]] = list(
            map(str, np.concatenate([c.disks_used for c in evaluations]).tolist())
        )
        for leaf, flags in (
            ("sequential_fact_access", [c.sequential for c in evaluations]),
            ("forced_full_scan", [c.forced for c in evaluations]),
        ):
            cells[:, _CLASS_CELL[leaf]] = _JSON_BOOLS[np.concatenate(flags).astype(np.intp)]
        cells[:, _CLASS_CELL["fragments_total"]] = np.repeat(
            np.array([_json(c.fragments_total) for c in evaluations], dtype=object), counts
        )
        cells[:, _CLASS_CELL["query_name"]] = list(
            map(encode_basestring_ascii, chain.from_iterable(c.query_names for c in evaluations))
        )
        attributes: Dict[Tuple[Tuple[str, str], ...], str] = {}
        cells[:, _CLASS_CELL["bitmap_attributes_used"]] = [
            attributes[used]
            if used in attributes
            else attributes.setdefault(used, _attribute_text(used))
            for used in chain.from_iterable(c.attributes_used for c in evaluations)
        ]
    for end, count in zip(ends.tolist(), counts.tolist()):
        parts = cells[end - count : end].ravel().tolist()
        parts.insert(0, "[")
        parts.append("]")
        yield "".join(parts).encode("ascii")


def _page_lists(page_vectors: Sequence[Any]) -> Iterator[List[bytes]]:
    """Each float vector's text, one ``repr`` per run of equal bit patterns.

    The first value of every run of every vector is rendered in one pass.
    """
    vectors = [np.ascontiguousarray(pages, dtype=np.float64) for pages in page_vectors]
    starts: List[np.ndarray] = []
    for values in vectors:
        bits = values.view(np.uint64)
        starts.append(np.flatnonzero(np.concatenate(([bits.size > 0], bits[1:] != bits[:-1]))))
    heads = [values[first] for values, first in zip(vectors, starts)]
    texts = _float_texts(np.concatenate(heads)).tolist() if heads else []
    offset = 0
    for values, first in zip(vectors, starts):
        if not values.size:
            yield [b"[]"]
            continue
        runs = [text.encode("ascii") for text in texts[offset : offset + first.size]]
        offset += first.size
        counts = np.diff(np.append(first, values.size)).tolist()
        counts[-1] -= 1  # the last value is written without a separator
        body = b"".join([(text + b", ") * count for text, count in zip(runs, counts)])
        yield [b"[", body, runs[-1], b"]"]


class _RecommendationText:
    """Writes the canonical text of one recommendation in encoded pieces."""

    def __init__(self) -> None:
        #: ``b"<i>, "`` for every disk id ``i``, NUL-padded to one width.
        self._disk_ids = np.array([b"0, "])

    def pieces(self, recommendation: Any) -> Iterator[Union[bytes, memoryview]]:
        """The text, at most a few pieces per candidate.

        Top-level members in sorted order: considered, evaluated, excluded,
        ranked, schema.  A ranked entry reuses the member texts of its
        evaluated candidate.
        """
        report = recommendation.exclusion_report
        evaluated = recommendation.evaluated
        ranked_labels = frozenset(ranked.candidate.label for ranked in recommendation.ranked)
        kept: Dict[str, Tuple[Any, Dict[str, _Text]]] = {}
        per_class = _per_class_lists([c.evaluation.as_columns() for c in evaluated])
        pages = _page_lists([c.allocation.fragment_pages for c in evaluated])
        yield b'{"considered": ' + _value(report.considered) + b', "evaluated": ['
        for index, candidate in enumerate(evaluated):
            members = self._candidate(candidate, next(per_class), next(pages))
            if candidate.label in ranked_labels:
                kept.setdefault(candidate.label, (candidate, members))
            if index:
                yield b", "
            yield from _pieces(members)
        excluded = {label: list(violations) for label, violations in report.excluded.items()}
        yield b'], "excluded": ' + _value(excluded) + b', "ranked": ['
        for index, ranked in enumerate(recommendation.ranked):
            candidate = ranked.candidate
            entry = kept.get(candidate.label)
            if entry is not None and entry[0] is candidate:
                members = dict(entry[1])
            else:
                members = self._candidate(
                    candidate,
                    next(_per_class_lists([candidate.evaluation.as_columns()])),
                    next(_page_lists([candidate.allocation.fragment_pages])),
                )
            members["final_rank"] = _value(ranked.final_rank)
            members["io_rank"] = _value(ranked.io_rank)
            if index:
                yield b", "
            yield from _pieces(members)
        yield b'], "schema": ' + _value(recommendation.schema.name) + b"}"

    def _candidate(
        self, candidate: Any, per_class: bytes, pages: List[bytes]
    ) -> Dict[str, _Text]:
        prefetch = candidate.prefetch
        allocation = candidate.allocation
        return {
            "label": _value(candidate.label),
            "fragment_count": _value(candidate.fragment_count),
            "io_cost_ms": _value(_float_repr(candidate.io_cost_ms)),
            "response_time_ms": _value(_float_repr(candidate.response_time_ms)),
            "prefetch": _value(
                {
                    "fact_pages": prefetch.fact_pages,
                    "bitmap_pages": prefetch.bitmap_pages,
                    "fact_policy": prefetch.fact_policy.value,
                    "bitmap_policy": prefetch.bitmap_policy.value,
                }
            ),
            "bitmap_indexes": _value(
                [[index.dimension, index.level] for index in candidate.bitmap_scheme]
            ),
            "allocation": {
                "scheme": _value(allocation.scheme),
                "disk_of_fragment": self._disk_id_list(allocation.disk_of_fragment),
                "fragment_pages": pages,
            },
            "per_class": per_class,
        }

    def _disk_id_list(self, disks: Any) -> List[Any]:
        """An integer vector through the fixed-width ``b"<i>, "`` table."""
        ids = np.asarray(disks)
        if not ids.size or ids.min() < 0:
            return [_value(ids.tolist())]
        size = int(ids.max()) + 1
        if len(self._disk_ids) < size:
            self._disk_ids = np.array([b"%d, " % i for i in range(size)])
        packed = self._disk_ids[ids].tobytes().replace(b"\0", b"")
        return [b"[", memoryview(packed)[:-2], b"]"]
