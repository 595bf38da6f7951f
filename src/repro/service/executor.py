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
thread count caps concurrent sweeps.  They allocate from one malloc arena
(see :func:`share_main_malloc_arena`), so a session one worker frees is
memory the next worker reuses.
"""

from __future__ import annotations

import os
import queue
import threading
import time
from typing import Any, Callable, List, Optional

from repro.errors import ServiceError

__all__ = ["RequestExecutor", "RequestJob", "share_main_malloc_arena"]

#: Default worker threads draining the request queue.
DEFAULT_WORKERS = 4
#: Default bound on queued-but-not-started requests.
DEFAULT_CAPACITY = 64
#: ``M_ARENA_MAX``, glibc's ``mallopt`` parameter capping its malloc arenas
#: (``<malloc.h>``).
_M_ARENA_MAX = -8


def share_main_malloc_arena() -> bool:
    """Have threads started from now on allocate from glibc's main arena.

    glibc gives each new thread a malloc arena of its own, and a freed block
    stays resident in the arena that allocated it.  A session built on a
    request worker holds tens of MB, so with an arena per thread every
    thread that ever built a session keeps that much resident after the
    session is evicted: the resident set grows with the threads the service
    has started and varies with which worker took which request.  In the
    perfbench ``serve-restart`` workload (2 workers, a server restarted
    with new threads per set-up) peak RSS read 158-161 MB in 8 of 11 runs
    and 186-187 MB in the other 3; with one arena it read 111.8-113.3 MB in
    all 11 (40 s runs on a 2-vCPU VM).  The GIL already serializes the
    Python code that allocates, so threads rarely wait on the shared
    arena's lock.

    Process-wide and best-effort: arenas threads already hold are kept, and
    on a C library other than glibc nothing changes.  Returns whether glibc
    accepted the setting.
    """
    try:
        if not (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc"):
            return False
        import ctypes

        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
        return bool(mallopt(_M_ARENA_MAX, 1) == 1)
    except (AttributeError, OSError, ValueError):
        # No confstr or mallopt (not glibc), or no C library to load.
        return False


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
        self._fail("request deadline exceeded while queued", 504)

    def refuse(self) -> None:
        """Fail the job with a 503 without running it (the executor stopped)."""
        self._fail("service stopped before the request started", 503)

    def _fail(self, message: str, status: int) -> None:
        if self.label:
            message += f" ({self.label})"
        self.error = ServiceError(message, status=status)
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
    :class:`RequestJob` for the 504 semantics.  Construction calls
    :func:`share_main_malloc_arena`, before the workers (and the server
    thread of an :class:`~repro.service.server.AdvisorServer`, which builds
    its executor first) start.
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
        #: Re-entrant: submit() holds it across start() and the enqueue.
        self._start_lock = threading.RLock()
        share_main_malloc_arena()

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
        """Stop accepting work and terminate the workers via poison pills.

        Every job submitted before still ends: a running one finishes, and a
        queued one fails with a 503 without running.  ``wait`` blocks until
        the workers have exited.
        """
        with self._start_lock:
            if self._shutdown:
                return
            self._shutdown = True
            started = self._started
        if not started:
            return
        # Every accepted job is queued ahead of the pills (submit checks the
        # flag and queues under the same lock), so each one is answered.
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
        deadline = (
            time.monotonic() + self.timeout if self.timeout is not None else None
        )
        job = RequestJob(fn, label=label, on_done=on_done, cancel=cancel, deadline=deadline)
        with self._start_lock:
            if self._shutdown:
                raise ServiceError("request executor is shut down", status=503)
            self.start()
            # Counted under the lock a worker takes to count the job done.
            with self._idle:
                try:
                    self._queue.put_nowait(job)
                except queue.Full:
                    raise ServiceError(
                        f"request queue saturated ({self.capacity} queued); retry later",
                        status=503,
                    ) from None
                self._pending += 1
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
                if self._shutdown:
                    item.refuse()
                elif remaining is not None and remaining <= 0:
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
