"""The serving façade: sessions, typed requests, options, progress.

This package is the API surface a front end (CLI, service, notebook) builds
on:

* :class:`~repro.api.options.EngineOptions` — one validated value object for
  the execution knobs (``vectorize``, ``cache``, ``cache_dir``, ``persist``,
  ``cache_max_mb``) threaded from every entry point down to the engine.
* :class:`~repro.api.session.AdvisorSession` — compile the inputs once, serve
  typed requests, derive incrementally edited sessions with
  :meth:`~repro.api.session.AdvisorSession.with_delta` (shared cache, exact
  reuse, fingerprint parity with fresh advisors).
* :mod:`~repro.api.requests` / :mod:`~repro.api.results` — the typed
  request/result pairs, each result with a stable ``to_dict()``.
* :mod:`~repro.api.progress` — :class:`ProgressEvent` chunk-boundary
  callbacks and :class:`CancellationToken` cooperative cancellation.
"""

from repro.api.options import EngineOptions
from repro.api.progress import CancellationToken, ProgressEvent
from repro.api.requests import (
    TUNE_STUDIES,
    CompareRequest,
    EvaluateSpecRequest,
    RecommendRequest,
    SimulateRequest,
    TuneRequest,
    request_from_dict,
)
from repro.api.results import (
    CompareResult,
    EvaluateSpecResult,
    RecommendResult,
    SimulateResult,
    TuneResult,
)
from repro.api.session import AdvisorSession

__all__ = [
    "EngineOptions",
    "ProgressEvent",
    "CancellationToken",
    "AdvisorSession",
    "RecommendRequest",
    "EvaluateSpecRequest",
    "CompareRequest",
    "TuneRequest",
    "SimulateRequest",
    "request_from_dict",
    "TUNE_STUDIES",
    "RecommendResult",
    "EvaluateSpecResult",
    "CompareResult",
    "TuneResult",
    "SimulateResult",
]
