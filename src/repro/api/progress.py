"""Progress events and cooperative cancellation for candidate sweeps.

The engine's sweep loop knows how many candidates a sweep has up front and
evaluates the cache misses in a few consecutive chunks — so per-chunk
completion is free to surface.  :class:`ProgressEvent` is the value object
the engine emits at every chunk boundary (the same chunks on the batched and
the scalar path), and :class:`CancellationToken` is the cooperative cancel
switch the engine checks at the same boundaries.

Cancellation is *cooperative and chunk-granular*: a set token makes the
engine stop dispatching further chunks and raise
:class:`~repro.errors.EvaluationCancelled`.  Everything completed before the
cancel — including cache entries, which are content-addressed functions of
their inputs — remains valid, so a later retry resumes warm.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Optional, Union

__all__ = [
    "ProgressEvent",
    "CancellationToken",
    "ProgressCallback",
    "CancelSignal",
    "cancel_requested",
    "sweep_scoped",
]


@dataclass(frozen=True)
class ProgressEvent:
    """One chunk-boundary snapshot of a running candidate sweep.

    ``chunk``/``num_chunks`` count the chunks this sweep actually dispatches
    (cache-answered candidates never reach a chunk; a fully warm sweep
    reports one complete chunk); ``completed``/``total`` count candidates
    including the cache-answered ones, so a meter rendered from the events
    always ends at ``total``.
    """

    phase: str
    #: Candidates finished so far (cache-answered included) / in the sweep.
    completed: int
    total: int
    #: Completed chunk count (1-based) / chunks dispatched by this sweep.
    chunk: int
    num_chunks: int
    #: (candidate × query class) evaluations finished / in the sweep: the
    #: candidate counts times the mix's number of query classes.
    completed_units: int
    total_units: int
    #: Label of the last candidate the completed chunk evaluated ("" at start).
    label: str = ""
    #: Composite requests (``tune``/``simulate`` with their implicit
    #: recommend) run several sweeps under one meter; ``sweep``/``num_sweeps``
    #: say which sweep of the request this event belongs to.  Plain
    #: single-sweep requests leave both at 1.
    sweep: int = 1
    num_sweeps: int = 1

    @property
    def fraction(self) -> float:
        """Completed fraction of the sweep's candidates (0.0 on empty sweeps)."""
        return self.completed / self.total if self.total else 0.0

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-ready) for serving progress over a wire."""
        return {
            "phase": self.phase,
            "completed": self.completed,
            "total": self.total,
            "chunk": self.chunk,
            "num_chunks": self.num_chunks,
            "completed_units": self.completed_units,
            "total_units": self.total_units,
            "label": self.label,
            "sweep": self.sweep,
            "num_sweeps": self.num_sweeps,
            "fraction": self.fraction,
        }

    def describe(self) -> str:
        """One-line meter text (the CLI's ``--progress`` line)."""
        text = (
            f"{self.phase} {self.completed}/{self.total} candidates "
            f"(chunk {self.chunk}/{self.num_chunks})"
        )
        if self.num_sweeps > 1:
            text = f"sweep {self.sweep}/{self.num_sweeps}: " + text
        if self.label:
            text += f" {self.label}"
        return text


class CancellationToken:
    """Thread-safe cooperative cancel switch.

    Hand the token to a sweep (``cancel=token``) and call :meth:`cancel` from
    anywhere — a signal handler, a UI thread, a progress callback.  The engine
    checks the token at chunk boundaries and raises
    :class:`~repro.errors.EvaluationCancelled` when it is set.
    """

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        """Request cancellation (idempotent)."""
        self._event.set()

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` has been called."""
        return self._event.is_set()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "active"
        return f"<CancellationToken {state}>"


def sweep_scoped(
    on_progress: Optional["ProgressCallback"], sweep: int, num_sweeps: int
) -> Optional["ProgressCallback"]:
    """Re-emit a sweep's events stamped as sweep ``sweep`` of ``num_sweeps``.

    Composite requests (a ``tune`` that first runs its implicit recommend,
    then the study settings) forward each inner sweep's events through this
    wrapper so a consumer can render one meter per *request*: "sweep k of n"
    plus the inner sweep's own completion ratio.  ``None`` passes through, so
    call sites need no progress-enabled special case.
    """
    if on_progress is None:
        return None

    def scoped(event: ProgressEvent) -> None:
        on_progress(replace(event, sweep=sweep, num_sweeps=num_sweeps))

    return scoped


def cancel_requested(cancel: Any) -> bool:
    """True when a cancel signal (token, callable, or ``None``) is set.

    The duck-typed check the engine and the tuning studies share: ``None``
    never cancels, a callable is polled, anything else is read through its
    ``cancelled`` attribute (the :class:`CancellationToken` protocol).
    """
    if cancel is None:
        return False
    if callable(cancel):
        return bool(cancel())
    return bool(getattr(cancel, "cancelled", False))


#: A progress consumer: any callable accepting one :class:`ProgressEvent`.
ProgressCallback = Callable[[ProgressEvent], None]

#: A cancel source: a :class:`CancellationToken` or a zero-argument callable
#: returning truthy once the sweep should stop.
CancelSignal = Union[CancellationToken, Callable[[], bool]]
