"""A bounded registry of live advisor sessions, one per warehouse.

The service maps each registered warehouse — a (schema, workload, system)
input set plus its advisor/engine options — onto at most one long-lived
:class:`~repro.api.AdvisorSession`.  Sessions are where all the warmth lives
(compiled class matrix, bitmap scheme, the evaluation cache and its answer
memo), so the registry's job is to keep the hot ones and bound the cold ones:

* **Lazy construction** — registering a warehouse stores only its inputs;
  the session is built on the first request that needs it (inside the worker
  thread, so registration stays cheap and the event loop never compiles a
  class matrix).
* **LRU eviction** — at most ``max_sessions`` sessions are live at a time;
  acquiring one refreshes its recency and evicts the least-recently-used
  session over the cap.  Evicted sessions are *closed* (their cache flushes
  to an attached persistent store), and the warehouse stays registered — a
  later request simply rebuilds the session, warm from disk if a store is
  configured.
* **Idle timeout** — sessions idle longer than ``idle_timeout`` seconds are
  closed on the next registry access (the registry never needs its own
  reaper thread).

Sessions serve one request at a time: the shared
:class:`~repro.engine.EvaluationCache` is not thread-safe, so each entry
carries a lock the server holds around ``session.submit(...)``.  Entries
whose lock is held (a request in flight) are never evicted; the next
least-recently-used idle session goes instead.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

from repro.api.options import EngineOptions
from repro.api.session import AdvisorSession
from repro.core.config import AdvisorConfig
from repro.errors import ServiceError
from repro.schema import StarSchema
from repro.storage import SystemParameters
from repro.workload import QueryMix

__all__ = ["SessionRegistry", "WarehouseEntry"]

#: Default cap on simultaneously live sessions.
DEFAULT_MAX_SESSIONS = 8

#: An evicted session paired with its *still-held* entry lock: the caller
#: closes the session, then releases the lock (see ``_collect_evictions``).
_Victim = Tuple[AdvisorSession, threading.Lock]


class WarehouseEntry:
    """One registered warehouse: its inputs plus the (lazy) live session."""

    __slots__ = (
        "name",
        "schema",
        "workload",
        "system",
        "config",
        "options",
        "session",
        "lock",
        "last_used",
        "requests",
    )

    def __init__(
        self,
        name: str,
        schema: StarSchema,
        workload: QueryMix,
        system: SystemParameters,
        config: Optional[AdvisorConfig],
        options: Optional[EngineOptions],
    ) -> None:
        self.name = name
        self.schema = schema
        self.workload = workload
        self.system = system
        self.config = config
        self.options = options
        self.session: Optional[AdvisorSession] = None
        #: Serializes submits on the session (the evaluation cache is not
        #: thread-safe); also the in-flight marker eviction respects.
        self.lock = threading.Lock()
        self.last_used = 0.0
        self.requests = 0

    def ensure_session(self) -> AdvisorSession:
        """The live session, built on first use (call with ``lock`` held)."""
        if self.session is None:
            self.session = AdvisorSession(
                self.schema,
                self.workload,
                self.system,
                config=self.config,
                options=self.options,
            )
        return self.session

    def describe(self) -> Dict[str, Any]:
        """JSON-ready summary row for ``GET /warehouses``."""
        return {
            "name": self.name,
            "schema": self.schema.name,
            "classes": len(self.workload),
            "system": self.system.describe(),
            "live": self.session is not None,
            "requests": self.requests,
        }


class SessionRegistry:
    """Bounded, LRU-evicting map of warehouse name → session entry."""

    def __init__(
        self,
        max_sessions: int = DEFAULT_MAX_SESSIONS,
        idle_timeout: Optional[float] = None,
        clock=time.monotonic,
    ) -> None:
        if max_sessions < 1:
            raise ServiceError(f"max_sessions must be positive, got {max_sessions}")
        if idle_timeout is not None and idle_timeout <= 0:
            raise ServiceError(f"idle_timeout must be positive, got {idle_timeout}")
        self.max_sessions = max_sessions
        self.idle_timeout = idle_timeout
        self._clock = clock
        #: Recency order: least-recently-used first.
        self._entries: "OrderedDict[str, WarehouseEntry]" = OrderedDict()
        self._lock = threading.Lock()
        #: Sessions closed by the LRU cap / idle timeout since construction.
        self.evictions = 0

    # -- registration -----------------------------------------------------------

    def register(
        self,
        name: str,
        schema: StarSchema,
        workload: QueryMix,
        system: SystemParameters,
        config: Optional[AdvisorConfig] = None,
        options: Optional[EngineOptions] = None,
    ) -> WarehouseEntry:
        """Register (or replace) a warehouse; any previous session is closed."""
        if not name:
            raise ServiceError("warehouse name must be non-empty")
        entry = WarehouseEntry(name, schema, workload, system, config, options)
        entry.last_used = self._clock()
        with self._lock:
            previous = self._entries.pop(name, None)
            self._entries[name] = entry
        if previous is not None:
            # Close under the entry lock: a worker that acquired the entry
            # before the swap may still be submitting on this session.
            with previous.lock:
                if previous.session is not None:
                    previous.session.close()
                    previous.session = None
        return entry

    def remove(self, name: str) -> bool:
        """Drop a warehouse registration entirely, closing its session."""
        with self._lock:
            entry = self._entries.pop(name, None)
        if entry is None:
            return False
        # Close under the entry lock: an in-flight request that acquired this
        # entry before the pop still owns the session until it releases.
        with entry.lock:
            if entry.session is not None:
                entry.session.close()
                entry.session = None
        return True

    # -- access -----------------------------------------------------------------

    def acquire(self, name: str) -> WarehouseEntry:
        """The entry for ``name``: recency refreshed, bounds enforced.

        Raises :class:`~repro.errors.ServiceError` (404) for an unregistered
        warehouse.  The caller holds ``entry.lock`` around the session use;
        the registry itself never blocks on a busy session.
        """
        now = self._clock()
        to_close: List[_Victim] = []
        with self._lock:
            entry = self._entries.get(name)
            if entry is None:
                raise ServiceError(f"unknown warehouse {name!r}", status=404)
            entry.last_used = now
            entry.requests += 1
            self._entries.move_to_end(name)
            to_close = self._collect_evictions(keep=name)
        for session, lock in to_close:
            # The victim's entry lock was acquired (non-blocking) inside
            # _collect_evictions, so no worker can be mid-submit on this
            # session; close outside the registry lock, release last.
            try:
                session.close()  # lint: disable=lock-discipline -- entry lock acquired non-blocking in _collect_evictions; released in finally
            finally:
                lock.release()
        return entry

    def _collect_evictions(self, keep: str) -> List["_Victim"]:
        """Pick sessions to close (idle timeout + LRU cap); registry lock held.

        A victim's entry lock is acquired *non-blocking* here: success proves
        no request is in flight and freezes the entry until the caller closes
        the session and releases; failure means the session is busy and it is
        skipped (the cap then falls on the next least-recently-used idle
        session).  The returned pairs carry the still-held locks — the caller
        closes each session and releases its lock outside the registry lock.
        """
        victims: List[_Victim] = []
        live = [e for e in self._entries.values() if e.session is not None]
        for entry in live:
            if entry.name == keep:
                continue
            idle = (
                self.idle_timeout is not None
                and self._clock() - entry.last_used > self.idle_timeout
            )
            if idle and entry.lock.acquire(blocking=False):
                victims.append((entry.session, entry.lock))
                entry.session = None
        live = [e for e in self._entries.values() if e.session is not None]
        # The acquired entry's session is built lazily after this call, so
        # count it as live already — otherwise the cap is enforced one
        # request late and briefly overshoots.
        keep_entry = self._entries.get(keep)
        prospective = len(live) + (
            1 if keep_entry is not None and keep_entry.session is None else 0
        )
        over = prospective - self.max_sessions
        if over > 0:
            # self._entries iterates least-recently-used first.
            for entry in live:
                if over <= 0:
                    break
                if entry.name == keep:
                    continue
                if entry.lock.acquire(blocking=False):
                    victims.append((entry.session, entry.lock))
                    entry.session = None
                    over -= 1
        self.evictions += len(victims)
        return victims

    # -- bookkeeping ------------------------------------------------------------

    def names(self) -> List[str]:
        """Registered warehouse names, least-recently-used first."""
        with self._lock:
            return list(self._entries)

    @property
    def live_sessions(self) -> int:
        """Number of currently constructed sessions."""
        with self._lock:
            return sum(1 for e in self._entries.values() if e.session is not None)

    def describe(self) -> Dict[str, Any]:
        """JSON-ready registry snapshot for ``GET /warehouses``."""
        with self._lock:
            rows = [entry.describe() for entry in self._entries.values()]
        return {
            "warehouses": rows,
            "max_sessions": self.max_sessions,
            "idle_timeout": self.idle_timeout,
            "live_sessions": sum(1 for row in rows if row["live"]),
            "evictions": self.evictions,
        }

    def store_health(self) -> Dict[str, int]:
        """Aggregate store robustness counters over the live sessions.

        Sums the :class:`~repro.engine.cache.CacheStats` store counters
        (salt mismatches, corrupt entries, fallback loads) of every
        currently constructed session, for ``GET /healthz``.  Counters live
        with their session, so an evicted session's anomalies leave the sum
        — the probe reports the health of the warm state currently serving
        requests, not service-lifetime history.  Reads are lock-free
        snapshots of monotone ints: a concurrent cache load can at worst
        make the sum momentarily stale, never wrong by more than the load
        in flight.
        """
        totals = {"salt_mismatches": 0, "corrupt_entries": 0, "fallback_loads": 0}
        with self._lock:
            entries = list(self._entries.values())
        for entry in entries:
            session = entry.session
            stats = session.stats if session is not None else None
            if stats is None:
                continue
            totals["salt_mismatches"] += stats.store_salt_mismatches
            totals["corrupt_entries"] += stats.store_corrupt_entries
            totals["fallback_loads"] += stats.store_fallback_loads
        return totals

    def close(self) -> None:
        """Close every live session (flushes caches to attached stores)."""
        with self._lock:
            entries = list(self._entries.values())
        for entry in entries:
            # Shutdown still respects the entry lock: a request draining in
            # the executor may hold it until its submit returns.
            with entry.lock:
                if entry.session is not None:
                    entry.session.close()
                    entry.session = None
