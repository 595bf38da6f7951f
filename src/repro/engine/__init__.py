"""The candidate-evaluation engine (batched, cache-aware).

The engine subsystem turns the advisor's serial candidate loop into an
explicit pipeline:

1. :class:`~repro.engine.executor.EvaluationEngine` answers a sweep's warm
   candidates from the cache and cuts the misses into a few consecutive
   chunks, which it evaluates in turn on the batched kernels or the scalar
   reference oracle, with guaranteed result parity between the two cost
   paths.
2. :class:`~repro.engine.cache.EvaluationCache` memoizes the batched
   path's per-layout access structures and whole candidate evaluations, so
   what-if tuning studies, comparisons and warm advisor runs reuse rather
   than recompute shared evaluations; in memory it also keeps whole
   answers, so a session re-asking a question any sharing session answered
   gets that answer without a probe.
3. :mod:`~repro.engine.signature` provides the content fingerprints the cache
   keys on, plus recommendation fingerprints used to *prove* parity.
4. :class:`~repro.engine.store.CacheStore` spills the cache to a directory
   (one CRC-checked npz of columnar candidate groups with their keys,
   integer attribute codes and last-access ages, plus the JSON exclusion
   reports; access structures stay in memory) so later *processes*
   warm-start from disk.  A load checks each group whole and hands out one
   undecoded handle per candidate; a handle decodes on its first warm
   probe.  Corrupted or version-mismatched stores are silently ignored.
"""

from repro.engine.cache import CacheStats, EvaluationCache
from repro.engine.store import STORE_FORMAT_VERSION, CacheStore, store_salt
from repro.engine.result import CandidateColumns
from repro.engine.signature import (
    layout_signature,
    object_signature,
    recommendation_fingerprint,
    recommendation_state,
    stable_digest,
)
from repro.engine.executor import (
    EngineContext,
    EvaluationEngine,
    evaluate_specs_in_context,
)

__all__ = [
    "CacheStats",
    "CacheStore",
    "CandidateColumns",
    "EvaluationCache",
    "STORE_FORMAT_VERSION",
    "store_salt",
    "EngineContext",
    "EvaluationEngine",
    "evaluate_specs_in_context",
    "layout_signature",
    "object_signature",
    "recommendation_fingerprint",
    "recommendation_state",
    "stable_digest",
]
