"""Runtime concurrency sanitizer for the engine's lock-discipline contracts.

The static ``lock-discipline`` rule proves call *sites* sit inside the
per-entry lock's ``with`` scope; this module proves the discipline holds at
*run time*, where aliasing and dynamic dispatch can defeat lexical analysis.
It is strictly opt-in — ``WARLOCK_SANITIZE=1`` in the environment (checked by
:func:`install_from_env`, wired into the CLI and the test suite's conftest)
— and instrument-only: enabled, it changes no behavior on correct programs,
but a discipline violation raises :class:`SanitizerViolation` loudly with
**both** stack traces (the holder's entry stack and the violator's).

What it asserts:

* **Exclusive entry** — :class:`~repro.engine.EvaluationCache` and
  :class:`~repro.api.AdvisorSession` methods are never executing on the same
  instance from two threads at once (reentrant calls from the owning thread
  are fine: the cache's methods call each other).
* **Lock ownership** — ``WarehouseEntry.ensure_session`` (documented "call
  with ``lock`` held") actually runs with the entry lock held *by the
  calling thread*; the entry lock is transparently replaced with an
  owner-tracking wrapper to make that checkable.
* **Registry discipline** — ``SessionRegistry._collect_evictions`` runs with
  the registry lock held.

Enable/disable are idempotent and reversible (the originals are restored),
so a test can toggle the sanitizer without poisoning later tests.
"""

from __future__ import annotations

import functools
import os
import threading
import traceback
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "SanitizerViolation",
    "disable_sanitizer",
    "enable_sanitizer",
    "install_from_env",
    "sanitizer_enabled",
]

ENV_VAR = "WARLOCK_SANITIZE"

#: Attribute name for the per-instance exclusive-entry guard.  Stored in the
#: instance ``__dict__`` so plain (non-slotted) classes need no cooperation.
_GUARD_ATTR = "_warlock_sanitizer_guard"


class SanitizerViolation(AssertionError):
    """A lock-discipline violation caught at run time.

    Deliberately *not* a :class:`~repro.errors.WarlockError`: service and CLI
    error handlers convert those into polite wire/exit codes, and a sanitizer
    finding must never be swallowed into a 4xx response — it should take the
    test (or the process) down with both stack traces attached.
    """


def _format_stack(skip: int = 2) -> str:
    """The current stack rendered like a traceback (without this helper)."""
    return "".join(traceback.format_stack()[:-skip])


class _ExclusiveEntry:
    """Per-instance guard: at most one thread inside, reentrancy allowed."""

    __slots__ = ("class_name", "_meta", "owner", "depth", "entry_method", "entry_stack")

    def __init__(self, class_name: str) -> None:
        self.class_name = class_name
        #: Serializes the guard bookkeeping itself (never held during the
        #: guarded method body, so it cannot mask the race it checks for).
        self._meta = threading.Lock()
        self.owner: Optional[int] = None
        self.depth = 0
        self.entry_method: Optional[str] = None
        self.entry_stack: Optional[str] = None

    def enter(self, method: str) -> None:
        me = threading.get_ident()
        with self._meta:
            if self.owner is None or self.owner == me:
                self.owner = me
                self.depth += 1
                if self.depth == 1:
                    self.entry_method = method
                    self.entry_stack = _format_stack(skip=3)
                return
            holder_stack = self.entry_stack or "<entry stack unavailable>\n"
            holder_method = self.entry_method
            holder = self.owner
        raise SanitizerViolation(
            f"concurrent entry into not-thread-safe {self.class_name}: "
            f"thread {me} called .{method}() while thread {holder} is inside "
            f".{holder_method}() on the same instance — hold the per-entry "
            f"lock around every use.\n"
            f"--- holder (thread {holder}) entered via ---\n{holder_stack}"
            f"--- violator (thread {me}) called from ---\n{_format_stack(skip=3)}"
        )

    def exit(self) -> None:
        with self._meta:
            self.depth -= 1
            if self.depth == 0:
                self.owner = None
                self.entry_method = None
                self.entry_stack = None


class _OwnedLock:
    """A :class:`threading.Lock` that remembers its owning thread.

    Drop-in for the per-entry lock (``acquire(blocking=)``, ``release()``,
    ``locked()``, context manager) plus :meth:`owned_by_current_thread`,
    which a plain lock cannot answer.
    """

    __slots__ = ("_lock", "_owner")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._owner: Optional[int] = None

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._lock.acquire(blocking, timeout)
        if acquired:
            self._owner = threading.get_ident()
        return acquired

    def release(self) -> None:
        self._owner = None
        self._lock.release()

    def locked(self) -> bool:
        return self._lock.locked()

    def owned_by_current_thread(self) -> bool:
        return self._owner == threading.get_ident()

    def __enter__(self) -> "_OwnedLock":
        self.acquire()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.release()


#: (class, attribute) -> original callable, for :func:`disable_sanitizer`.
_originals: Dict[Tuple[type, str], Callable[..., Any]] = {}
_enabled = False
_toggle_lock = threading.Lock()

#: Methods guarded for exclusive entry, per class.
_CACHE_METHODS = (
    "get_structure_batch",
    "put_structure_batch",
    "get_candidate",
    "put_candidate",
    "class_matrix",
    "layout",
    "get_answer",
    "put_answer",
    "validate_workload",
    "get_exclusions",
    "put_exclusions",
    "load",
    "save",
    "attach",
    "persist",
    "clear",
    "reset_stats",
)
_SESSION_METHODS = (
    "submit",
    "recommend",
    "evaluate_spec",
    "compare",
    "tune",
    "simulate",
    "with_delta",
    "persist_cache",
    "close",
)


def _guarded(cls: type, method: Callable[..., Any]) -> Callable[..., Any]:
    class_name = cls.__name__

    @functools.wraps(method)
    def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
        # dict.setdefault is atomic, so two racing first calls share a guard
        # (and the guard then reports their race, not a spurious one).
        guard = self.__dict__.setdefault(_GUARD_ATTR, _ExclusiveEntry(class_name))
        guard.enter(method.__name__)
        try:
            return method(self, *args, **kwargs)
        finally:
            guard.exit()

    wrapper.__wrapped_by_sanitizer__ = True  # type: ignore[attr-defined]
    return wrapper


def _wrap_methods(cls: type, names: Tuple[str, ...]) -> None:
    for name in names:
        original = cls.__dict__.get(name)
        if original is None or not callable(original):
            # A renamed or deleted method must not silently stop being
            # lock-checked: the guarded list names only defined methods.
            raise AttributeError(
                f"sanitizer guards {cls.__name__}.{name}, which the class "
                f"does not define"
            )
        _originals[(cls, name)] = original
        setattr(cls, name, _guarded(cls, original))


def _install_entry_lock_tracking() -> None:
    """Swap ``WarehouseEntry.lock`` for :class:`_OwnedLock` on new entries
    and make ``ensure_session`` assert current-thread ownership."""
    from repro.service.registry import SessionRegistry, WarehouseEntry

    original_init = WarehouseEntry.__init__
    _originals[(WarehouseEntry, "__init__")] = original_init

    @functools.wraps(original_init)
    def init(self: Any, *args: Any, **kwargs: Any) -> None:
        original_init(self, *args, **kwargs)
        self.lock = _OwnedLock()

    WarehouseEntry.__init__ = init  # type: ignore[method-assign]

    original_ensure = WarehouseEntry.ensure_session
    _originals[(WarehouseEntry, "ensure_session")] = original_ensure

    @functools.wraps(original_ensure)
    def ensure_session(self: Any) -> Any:
        lock = self.lock
        # Entries created before enable_sanitizer() carry a plain lock,
        # which cannot answer ownership; only _OwnedLock is checkable.
        if isinstance(lock, _OwnedLock) and not lock.owned_by_current_thread():
            raise SanitizerViolation(
                f"WarehouseEntry.ensure_session({self.name!r}) called without "
                f"holding the entry lock on the calling thread — the session "
                f"build and every submit must run under 'with entry.lock:'.\n"
                f"--- called from ---\n{_format_stack(skip=3)}"
            )
        return original_ensure(self)

    WarehouseEntry.ensure_session = ensure_session  # type: ignore[method-assign]

    original_collect = SessionRegistry._collect_evictions
    _originals[(SessionRegistry, "_collect_evictions")] = original_collect

    @functools.wraps(original_collect)
    def collect(self: Any, keep: str) -> List[Any]:
        if not self._lock.locked():
            raise SanitizerViolation(
                f"SessionRegistry._collect_evictions() called without the "
                f"registry lock held — eviction selection must be atomic "
                f"with the recency update.\n"
                f"--- called from ---\n{_format_stack(skip=3)}"
            )
        return original_collect(self, keep)

    SessionRegistry._collect_evictions = collect  # type: ignore[method-assign]


def sanitizer_enabled() -> bool:
    """True while the sanitizer instrumentation is installed."""
    return _enabled


def enable_sanitizer() -> None:
    """Install the instrumentation (idempotent)."""
    global _enabled
    with _toggle_lock:
        if _enabled:
            return
        from repro.api.session import AdvisorSession
        from repro.engine.cache import EvaluationCache

        try:
            _wrap_methods(EvaluationCache, _CACHE_METHODS)
            _wrap_methods(AdvisorSession, _SESSION_METHODS)
        except AttributeError:
            _restore_originals()
            raise
        _install_entry_lock_tracking()
        _enabled = True


def _restore_originals() -> None:
    for (cls, name), original in _originals.items():
        setattr(cls, name, original)
    _originals.clear()


def disable_sanitizer() -> None:
    """Restore every instrumented callable (idempotent)."""
    global _enabled
    with _toggle_lock:
        if not _enabled:
            return
        _restore_originals()
        _enabled = False


def install_from_env(environ: Optional[Dict[str, str]] = None) -> bool:
    """Enable the sanitizer when ``WARLOCK_SANITIZE`` is truthy; return it."""
    env = environ if environ is not None else os.environ
    value = env.get(ENV_VAR, "").strip().lower()
    if value in {"1", "true", "yes", "on"}:
        enable_sanitizer()
        return True
    return False
