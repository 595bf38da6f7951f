"""Stable content fingerprints for cache keys and result-parity checks.

Cache keys must identify *inputs by content*, not by object identity: two
sessions built from equal schemas must hit the same cache entries, and one
process must produce store entries a later process can reuse.  All input
objects of the advisor are frozen dataclasses whose auto-generated ``repr``
deterministically encodes every field, so a digest over the repr is a
faithful content fingerprint.  Digests are memoized on the instance (frozen
dataclasses still carry a ``__dict__``), so the repr is rendered once per
object, not once per cache probe.

:func:`recommendation_state` / :func:`recommendation_fingerprint` canonicalize
a full :class:`~repro.core.advisor.Recommendation` — every float at full
precision, every allocation vector — which is what the parity tests and the
engine benchmark use to prove that batched, scalar and cached runs return
identical results.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict

__all__ = [
    "stable_digest",
    "object_signature",
    "layout_signature",
    "query_structure_signature",
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


def query_structure_signature(query: Any) -> str:
    """Weight-independent content fingerprint of a query class.

    Access structures depend on a query's restrictions (and the fact table it
    targets), never on its workload weight — so the structure cache keys on
    this signature, letting reweighted mixes reuse every structure.  The name
    is included because it is baked into the cached structure itself.
    """
    state = query.__dict__
    cached = state.get("_engine_structure_signature")
    if cached is not None:
        return cached
    signature = stable_digest(
        "QueryClassStructure",
        query.name,
        repr(query.restrictions),
        repr(query.fact_table),
    )
    state["_engine_structure_signature"] = signature
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
    """SHA-1 fingerprint of :func:`recommendation_state` (parity checks)."""
    payload = json.dumps(recommendation_state(recommendation), sort_keys=True)
    return stable_digest("Recommendation", payload)
