"""The bounded queue/drain request executor of the advisor service.

The shape follows PostBOUND's ``ParallelQueryExecutor`` (SNIPPETS.md
exemplar 3): producers enqueue work onto one bounded queue, a fixed pool of
worker threads drains it, and a ``drain()`` barrier lets a caller wait until
everything submitted so far has finished.  Differences fitting this service:

* the queue is **bounded and non-blocking on submit** — a saturated service
  answers 503 immediately (back-pressure to the client) instead of stacking
  unbounded work behind the listener;
* each submission returns a :class:`RequestJob` handle carrying the result /
  error and a completion hook the asyncio front end uses to wake the awaiting
  coroutine (``loop.call_soon_threadsafe``) without polling.

Workers are plain threads: one advisor request is CPU-heavy Python that
runs its whole sweep in-process on the worker thread that took it, so the
thread count caps concurrent sweeps.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Any, Callable, List, Optional

from repro.errors import ServiceError

__all__ = ["RequestExecutor", "RequestJob"]

#: Default worker threads draining the request queue.
DEFAULT_WORKERS = 4
#: Default bound on queued-but-not-started requests.
DEFAULT_CAPACITY = 64


class RequestJob:
    """Handle of one submitted request: result, error, completion event.

    ``deadline`` (a ``time.monotonic()`` instant, set by the executor when it
    runs with a request timeout) budgets queue wait *plus* execution: a job
    whose deadline passes while still queued is failed with a 504 without
    running, and one that is still executing at the deadline has its
    ``cancel`` token tripped so the sweep stops cooperatively at the next
    chunk boundary — completed entries stay warm in the session cache either
    way.  ``timed_out`` records which of the job's endings was deadline-
    driven, so the front end can distinguish a 504 from a client-side 499.
    """

    def __init__(
        self,
        fn: Callable[[], Any],
        label: str = "",
        on_done: Optional[Callable[[], None]] = None,
        cancel: Any = None,
        deadline: Optional[float] = None,
    ) -> None:
        self.fn = fn
        self.label = label
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self.cancel = cancel
        self.deadline = deadline
        self.timed_out = False
        self._on_done = on_done
        self._done = threading.Event()

    def _remaining(self) -> Optional[float]:
        """Seconds left until the deadline (``None`` without one)."""
        if self.deadline is None:
            return None
        return self.deadline - time.monotonic()

    def expire(self) -> None:
        """Fail the job with a 504 without running it (queue-wait overrun)."""
        self.timed_out = True
        self.error = ServiceError(
            f"request deadline exceeded while queued"
            + (f" ({self.label})" if self.label else ""),
            status=504,
        )
        self._finish()

    def run(self) -> None:
        """Execute the job (worker side); never raises."""
        timer: Optional[threading.Timer] = None
        remaining = self._remaining()
        if remaining is not None and self.cancel is not None:

            def fire() -> None:
                self.timed_out = True
                self.cancel.cancel()

            timer = threading.Timer(max(remaining, 0.0), fire)
            timer.daemon = True
            timer.start()
        try:
            self.result = self.fn()
        except BaseException as error:  # noqa: BLE001 - relayed to the waiter
            self.error = error
        finally:
            if timer is not None:
                timer.cancel()
            self._finish()

    def _finish(self) -> None:
        self._done.set()
        if self._on_done is not None:
            try:
                self._on_done()
            except Exception:  # pragma: no cover - notification best-effort
                pass

    @property
    def done(self) -> bool:
        return self._done.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job finished; True when it did."""
        return self._done.wait(timeout)

    def outcome(self) -> Any:
        """The job's result, re-raising its error (call after completion)."""
        if not self._done.is_set():
            raise ServiceError("request job read before completion", status=500)
        if self.error is not None:
            raise self.error
        return self.result


#: Poison pill the shutdown path posts once per worker.
_STOP = object()


class RequestExecutor:
    """A fixed worker pool draining one bounded request queue.

    ``timeout`` (seconds, ``None`` = no deadline) stamps every submitted job
    with a deadline covering queue wait plus execution — see
    :class:`RequestJob` for the 504 semantics.
    """

    def __init__(
        self,
        workers: int = DEFAULT_WORKERS,
        capacity: int = DEFAULT_CAPACITY,
        timeout: Optional[float] = None,
    ) -> None:
        if workers < 1:
            raise ServiceError(f"workers must be positive, got {workers}")
        if capacity < 1:
            raise ServiceError(f"capacity must be positive, got {capacity}")
        if timeout is not None and timeout <= 0:
            raise ServiceError(f"timeout must be positive or None, got {timeout}")
        self.workers = workers
        self.capacity = capacity
        self.timeout = timeout
        self._queue: "queue.Queue[Any]" = queue.Queue(maxsize=capacity)
        self._threads: List[threading.Thread] = []
        self._pending = 0
        self._idle = threading.Condition()
        self._shutdown = False
        self._started = False
        self._start_lock = threading.Lock()

    # -- lifecycle --------------------------------------------------------------

    def start(self) -> None:
        """Spin up the worker threads (idempotent; submit() starts lazily)."""
        with self._start_lock:
            if self._started:
                return
            self._started = True
            for number in range(self.workers):
                thread = threading.Thread(
                    target=self._drain_loop,
                    name=f"advisor-request-worker-{number}",
                    daemon=True,
                )
                thread.start()
                self._threads.append(thread)

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work and terminate the workers via poison pills."""
        with self._start_lock:
            if self._shutdown:
                return
            self._shutdown = True
            started = self._started
        if not started:
            return
        for _ in self._threads:
            self._queue.put(_STOP)
        if wait:
            for thread in self._threads:
                thread.join()

    # -- submission -------------------------------------------------------------

    def submit(
        self,
        fn: Callable[[], Any],
        label: str = "",
        on_done: Optional[Callable[[], None]] = None,
        cancel: Any = None,
    ) -> RequestJob:
        """Enqueue one request; 503 immediately when the queue is saturated.

        ``cancel`` is the request's cooperative cancel token; with a
        configured executor ``timeout`` it is tripped when the deadline
        passes mid-execution.
        """
        if self._shutdown:
            raise ServiceError("request executor is shut down", status=503)
        self.start()
        deadline = (
            time.monotonic() + self.timeout if self.timeout is not None else None
        )
        job = RequestJob(fn, label=label, on_done=on_done, cancel=cancel, deadline=deadline)
        with self._idle:
            self._pending += 1
        try:
            self._queue.put_nowait(job)
        except queue.Full:
            with self._idle:
                self._pending -= 1
            raise ServiceError(
                f"request queue saturated ({self.capacity} queued); retry later",
                status=503,
            )
        return job

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until everything submitted so far finished; True when idle."""
        with self._idle:
            return self._idle.wait_for(lambda: self._pending == 0, timeout)

    @property
    def pending(self) -> int:
        """Requests submitted but not yet finished (queued + running)."""
        with self._idle:
            return self._pending

    # -- worker side ------------------------------------------------------------

    def _drain_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _STOP:
                break
            try:
                remaining = item._remaining()
                if remaining is not None and remaining <= 0:
                    # The deadline passed while the job sat in the queue:
                    # answer 504 without burning a worker on doomed work.
                    item.expire()
                else:
                    item.run()
            finally:
                with self._idle:
                    self._pending -= 1
                    if self._pending == 0:
                        self._idle.notify_all()
