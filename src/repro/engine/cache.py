"""Memoized evaluation cache for the candidate-evaluation engine.

The advisor's hot path evaluates the analytical cost model for every
(candidate × query class) pair, while what-if tuning studies and
comparisons re-evaluate the same pairs under varied system parameters.  The
cache removes the recomputation:

* **Access structures** are the expensive, prefetch-independent part of the
  estimation.  The batched path keeps one entry per layout: a 1-row
  :class:`repro.costmodel.AccessStructureBatch2D` covering every class of a
  compiled :class:`~repro.workload.ClassMatrix`, keyed on (layout, matrix)
  content signatures — deliberately *not* on the system parameters,
  prefetch setting or query weights — so tuning studies that vary disks,
  architectures, prefetch granules or query weights reuse every structure.
  The scalar reference oracle takes no cache: it derives each class's
  structure once per evaluated candidate.
* **Candidates** (:class:`repro.core.FragmentationCandidate`) are whole
  evaluations keyed on everything that can move a number (schema, fact table,
  spec, workload, system, bitmap scheme, the config knobs the evaluation
  reads).  They make warm re-evaluations — repeated ``recommend()`` calls,
  comparisons over already-studied specs — skip layout materialization,
  prefetch resolution, the cost sweep and the allocation entirely.

All cached values are immutable (frozen dataclasses), and every cache entry is
the deterministic function of its key, so sharing a cache can never change a
result — only skip its recomputation.  The parity tests assert exactly that.

Two memos sit above the evaluations, so that sessions sharing one cache
answer a revisited input set without per-candidate work:

* **Answers** of whole requests (a session's ``recommend()`` result), keyed
  on a content fingerprint of every input the request reads.  A fresh
  session, a ``with_delta`` revisit or a tuning study's implicit recommend
  asking the same question gets the first asker's answer back.  An answer
  pins all its candidates, so each counts its candidate count against
  ``max_entries``.
* **Validated inputs**: the (schema, workload) signature pairs whose
  workload validation passed, so an engine built on the cache validates an
  input pair once.  A failed validation is not remembered.

Because keys are content signatures, entries are also valid *across
processes*: :meth:`EvaluationCache.attach` hooks the cache to a persistent
:class:`~repro.engine.store.CacheStore` directory (warm-start loads on attach,
:meth:`EvaluationCache.persist` spills after a sweep), which is how repeated
CLI invocations and tuning sessions reuse each other's evaluations.  Only
candidates and exclusion reports persist; access structures, answers and
validated inputs stay in memory, where ``with_delta`` chains and tuning
studies reuse them within a process — a fresh process recomputes a sweep's
structures faster than it could unpack them from disk, and sweeps its
answers warm from the stored candidates.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, Optional, Set, Tuple

from repro.engine.signature import layout_signature, object_signature, stable_digest
from repro.engine.store import CorruptCandidate, StoredCandidate
from repro.errors import AllocationError

__all__ = ["CacheStats", "EvaluationCache"]

#: Sentinel distinguishing "absent" from cached falsy values.
_MISSING = object()


@dataclass
class CacheStats:
    """Hit/miss counters of one :class:`EvaluationCache`."""

    structure_hits: int = 0
    structure_misses: int = 0
    candidate_hits: int = 0
    candidate_misses: int = 0
    #: Hits answered by entries that were loaded from a persistent store
    #: (a subset of ``candidate_hits``).
    candidate_disk_hits: int = 0
    #: Store robustness counters, accumulated from the attached store's
    #: :class:`~repro.engine.store.StoreLoadStats` deltas on each
    #: :meth:`EvaluationCache.load` — how often warm starts were degraded by
    #: a salt (version) mismatch, skipped individually corrupt entries, or
    #: fell back to an empty load because a whole file was unreadable.
    store_salt_mismatches: int = 0
    store_corrupt_entries: int = 0
    store_fallback_loads: int = 0

    @property
    def hits(self) -> int:
        """Total cache hits over both entry kinds."""
        return self.structure_hits + self.candidate_hits

    @property
    def misses(self) -> int:
        """Total cache misses over both entry kinds."""
        return self.structure_misses + self.candidate_misses

    @property
    def lookups(self) -> int:
        """Total probes."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of probes answered from the cache (0.0 when unused)."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    @property
    def disk_hits(self) -> int:
        """Total hits answered by entries loaded from a persistent store."""
        return self.candidate_disk_hits

    @property
    def disk_hit_rate(self) -> float:
        """Fraction of probes answered from disk-loaded entries (0.0 when unused)."""
        lookups = self.lookups
        return self.disk_hits / lookups if lookups else 0.0

    @property
    def store_load_anomalies(self) -> int:
        """Total store-load anomalies observed (mismatches + corrupt + fallbacks)."""
        return (
            self.store_salt_mismatches
            + self.store_corrupt_entries
            + self.store_fallback_loads
        )

    def describe(self) -> str:
        """One-line summary used by the benchmark and the CLI."""
        line = (
            f"cache: {self.hits}/{self.lookups} hits ({self.hit_rate:.1%}); "
            f"structures {self.structure_hits}h/{self.structure_misses}m, "
            f"candidates {self.candidate_hits}h/{self.candidate_misses}m, "
            f"disk {self.disk_hits}h"
        )
        if self.store_load_anomalies:
            line += (
                f"; store anomalies {self.store_salt_mismatches} salt/"
                f"{self.store_corrupt_entries} corrupt/"
                f"{self.store_fallback_loads} fallback"
            )
        return line


# lint: not-thread-safe instances=cache
class EvaluationCache:
    """Content-addressed memo of access structures and whole candidates.

    Parameters
    ----------
    max_entries:
        Optional bound on the number of entries kept *per kind*.  When the
        bound is reached the oldest-inserted entries are evicted (FIFO — the
        advisor's access pattern is build-once/reuse-many, so recency tracking
        buys nothing over insertion order).  ``None`` (default) means
        unbounded.  A structure entry holds one layout's planes for every
        class: on a 40-class workload about 5 KB of array data and 8 KB
        with its objects (2.1 MB for a 263-candidate sweep); candidate
        entries retain the whole evaluation *including the per-fragment
        allocation arrays* (roughly 16 bytes per fragment), so a cache that
        outlives many large sweeps should set a bound — e.g. ``max_entries``
        of a few thousand keeps the candidate store in the tens of MB for
        10k-fragment layouts.  Memoized answers count the candidates they
        pin against the same bound (see :meth:`put_answer`).

    Answers and validated input pairs are memory-only: never persisted, not
    counted by ``len()`` or the hit/miss stats, and dropped by
    :meth:`clear`.
    """

    def __init__(self, max_entries: Optional[int] = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be positive when set, got {max_entries}")
        self.max_entries = max_entries
        self.stats = CacheStats()
        #: Per-layout access-structure batches (memory only: never
        #: persisted, but counted by ``len()`` and the hit/miss stats).
        self._structures: Dict[Tuple[str, ...], Any] = {}
        self._candidates: Dict[Tuple[str, ...], Any] = {}
        #: Compiled ClassMatrix memo (shared across sessions, never persisted;
        #: cheap to rebuild, but re-compiling on every system-only what-if
        #: delta wastes the per-edit constant).  Not counted by ``len()``.
        self._matrices: Dict[str, Any] = {}
        #: Built FragmentationLayout memo, per-fragment arrays included
        #: (memory only, like the matrix memo; not counted by ``len()``).
        self._layouts: Dict[Tuple[str, ...], Any] = {}
        #: Candidate-exclusion reports (threshold diagnostics + surviving
        #: specs), keyed on enumeration-input signatures; persisted alongside
        #: the store so warm-from-disk runs skip re-deriving the thresholds.
        self._reports: Dict[Tuple[str, ...], Any] = {}
        #: Memoized request answers with the candidate count each pins
        #: (memory only; see :meth:`put_answer`).
        self._answers: Dict[str, Tuple[Any, int]] = {}
        #: (schema, workload) signature pairs that passed validation (memory
        #: only; see :meth:`validate_workload`).
        self._validated: Dict[Tuple[str, str], bool] = {}
        # -- persistence state (see the "persistence" section below) --
        #: Keys whose entries came from a persistent store (disk-hit stats).
        self._disk_keys: Set[Tuple[str, ...]] = set()
        #: Keys this process actually used (hit or inserted) since the last
        #: save — the store's LRU garbage collection refreshes exactly these,
        #: so entries a warm run still touches stay young while dead weight
        #: ages out.  Loading alone does not touch.
        self._touched: Set[Tuple[str, ...]] = set()
        #: Backing store attached via :meth:`attach`; ``None`` = memory only.
        self._store = None
        #: True when the cache holds entries the attached store has not seen.
        self._dirty = False
        #: Total entries loaded from persistent stores over this cache's life.
        self.loaded_from_disk = 0

    # -- keys -------------------------------------------------------------------

    @staticmethod
    def _structure_batch_key(layout, matrix) -> Tuple[str, ...]:
        # The matrix signature is weight-independent (queries' structure plus
        # bitmap scheme plus schema): reweighted mixes reuse every entry.
        return (layout_signature(layout), matrix.signature)

    @staticmethod
    def workload_signature(workload) -> str:
        """Content fingerprint of a query mix (queries plus normalized shares)."""
        state = getattr(workload, "__dict__", None)
        if state is not None:
            # Own memo slot — never share "_engine_signature" with
            # object_signature, which computes a different digest.
            cached = state.get("_engine_workload_signature")
            if cached is not None:
                return cached
        parts = []
        for query, share in workload.weighted_items():
            parts.append(object_signature(query))
            parts.append(repr(float(share)))
        signature = stable_digest("QueryMix", *parts)
        if state is not None:
            state["_engine_workload_signature"] = signature
        return signature

    @classmethod
    def candidate_key(cls, context, spec) -> Tuple[str, ...]:
        """Key of one whole candidate evaluation under an engine context.

        Covers every input the evaluation reads: schema, fact table, spec,
        workload, system, bitmap scheme and the two config knobs that change
        the result (the materialization bound and the allocation skew
        threshold).
        """
        return (
            object_signature(context.schema),
            context.fact_name,
            spec.label,
            cls.workload_signature(context.workload),
            object_signature(context.system),
            object_signature(context.bitmap_scheme),
            str(context.config.max_fragments),
            repr(float(context.config.allocation_skew_cv)),
        )

    # -- lookup/insert ----------------------------------------------------------

    def _bounded_put(self, store: Dict[Any, Any], key, value) -> None:
        """Insert into one per-kind store, FIFO-bounded at ``max_entries``.

        A new key in a full store first drops the oldest-inserted entry and
        its disk-origin flag; a key already present is overwritten in place.
        """
        if (
            self.max_entries is not None
            and key not in store
            and len(store) >= self.max_entries
        ):
            evicted = next(iter(store))
            del store[evicted]
            self._disk_keys.discard(evicted)
        store[key] = value

    def get_structure_batch(self, layout, matrix):
        """Probe for a per-layout structure batch; ``None`` on miss (counted).

        One entry covers *every* query class of the compiled
        :class:`~repro.workload.ClassMatrix`, keyed on (layout, matrix)
        content signatures.  The batched executor probes every layout of a
        chunk first and computes all misses as one stacked batch, so the
        probe and the insert (:meth:`put_structure_batch`) are separate
        calls.
        """
        value = self._structures.get(
            self._structure_batch_key(layout, matrix), _MISSING
        )
        if value is _MISSING:
            self.stats.structure_misses += 1
            return None
        self.stats.structure_hits += 1
        return value

    def put_structure_batch(self, layout, matrix, value) -> None:
        """Insert one layout's structure batch (the executor copies it out of
        a chunk's stacked compute as a 1-row stack).

        Not a probe — no counter moves; the miss was already counted by the
        preceding :meth:`get_structure_batch`.
        """
        self._bounded_put(
            self._structures, self._structure_batch_key(layout, matrix), value
        )

    def get_candidate(self, context, spec):
        """Probe for a whole-candidate evaluation; ``None`` on miss.

        The probe is counted (hit or miss).  The engine's sweep driver uses
        this to answer warm candidates once per spec and chunk only the
        misses.

        Entries loaded from a persistent store are deferred handles
        (:class:`~repro.engine.store.StoredCandidate`); the first probe
        decodes and materializes the candidate under the probing context —
        valid because the content-addressed key covers every input the
        materialization reads — and upgrades the entry in place so later
        probes are free.  A stored candidate whose decode finds a non-finite
        metric, whose fragment count is not its rebuilt layout's, or whose
        greedy disk ids the probing system rejects (a disk id past its disk
        count) is counted as a corrupt store entry, dropped and reported as
        a miss, so the sweep evaluates that candidate cold.
        """
        key = self.candidate_key(context, spec)
        value = self._candidates.get(key, _MISSING)
        if isinstance(value, StoredCandidate):
            try:
                value = value.decode().materialize(context, spec)
            except (AllocationError, CorruptCandidate):
                self.stats.store_corrupt_entries += 1
                del self._candidates[key]
                self._disk_keys.discard(key)
                value = _MISSING
            else:
                self._candidates[key] = value
        if value is _MISSING:
            self.stats.candidate_misses += 1
            return None
        self.stats.candidate_hits += 1
        if key in self._disk_keys:
            self.stats.candidate_disk_hits += 1
        self._touched.add(key)
        return value

    def put_candidate(self, context, spec, candidate) -> None:
        """Insert a candidate evaluated by a sweep's chunk pass.

        Not a probe — no counter moves; the miss was already counted by the
        ``get_candidate`` that preceded the computation.
        """
        key = self.candidate_key(context, spec)
        self._bounded_put(self._candidates, key, candidate)
        self._disk_keys.discard(key)
        self._touched.add(key)
        self._dirty = True

    # -- compiled class matrices (shared, in-memory only) -------------------------

    def class_matrix(self, key: str, compute):
        """Memoized compiled :class:`~repro.workload.ClassMatrix`.

        Keyed on a content signature over (schema, workload, bitmap scheme,
        fact table), so sessions sharing one cache — in particular
        ``with_delta`` edits that change only the system — stop re-compiling
        an unchanged matrix.  In-memory only: matrices are cheap to rebuild
        and always re-derivable, so they are never spilled to the store (and
        not counted by ``len()`` or the hit/miss stats).  ``max_entries``
        bounds this memo like the evaluation stores (FIFO), so a long-lived
        shared cache serving many warehouses cannot grow without limit.
        """
        return self._memoized_input(self._matrices, key, compute)

    # -- built layouts (shared, in-memory only) -----------------------------------

    @staticmethod
    def layout_key(
        schema, fact_name: str, spec, page_size_bytes: int
    ) -> Tuple[str, ...]:
        """Key of one built layout: everything ``build_layout`` reads but the
        materialization limit, which callers check on every hit."""
        return (object_signature(schema), fact_name, spec.label, str(page_size_bytes))

    def layout(self, key: Tuple[str, ...], compute):
        """Memoized :class:`~repro.fragmentation.FragmentationLayout`.

        A layout is a pure function of its key, and its lazily computed
        per-fragment arrays (fragment rows and pages, size CV) stay on the
        memoized instance, so a re-sweep of the same warehouse — every
        ``with_delta`` edit of the system or the mix — skips rebuilding them.
        In-memory only and bounded like the matrix memo: never spilled, not
        counted by ``len()`` or the hit/miss stats, FIFO-evicted at
        ``max_entries``.
        """
        return self._memoized_input(self._layouts, key, compute)

    def _memoized_input(self, store: Dict[Any, Any], key, compute):
        """Shared body of the in-memory input memos (FIFO at ``max_entries``)."""
        value = store.get(key)
        if value is None:
            value = compute()
            self._bounded_put(store, key, value)
        return value

    # -- request answers and validated inputs (shared, in-memory only) -----------

    def get_answer(self, key: str):
        """The memoized answer for an input fingerprint, or ``None``.

        Not a probe: no counter moves, since an answer skips every candidate
        probe its sweep would have made.
        """
        entry = self._answers.get(key)
        return None if entry is None else entry[0]

    def put_answer(self, key: str, answer: Any, candidates: int) -> None:
        """Memoize ``answer``, which pins ``candidates`` evaluated candidates.

        An answer keeps all its candidates alive, whether or not the
        candidate store still holds them, so the answers count their pinned
        candidates against ``max_entries``: the oldest answers are dropped
        first until the total fits, but the newest always stays.
        """
        self._answers.pop(key, None)
        self._answers[key] = (answer, candidates)
        if self.max_entries is None:
            return
        pinned = sum(count for _, count in self._answers.values())
        while pinned > self.max_entries and len(self._answers) > 1:
            pinned -= self._answers.pop(next(iter(self._answers)))[1]

    def validate_workload(self, schema, workload) -> None:
        """``workload.validate(schema)``, once per content-equal input pair.

        A pass is remembered under the (schema, workload) signature pair; a
        raise is not, so every later engine on the same inputs raises too.
        FIFO-bounded at ``max_entries`` like the other input memos.
        """
        key = (object_signature(schema), self.workload_signature(workload))
        if key not in self._validated:
            workload.validate(schema)
            self._bounded_put(self._validated, key, True)

    # -- candidate-exclusion reports ---------------------------------------------

    def get_exclusions(self, key: Tuple[str, ...]):
        """The cached exclusion payload for an enumeration-input key (or None).

        Not counted by the hit/miss stats: exclusion evaluation is part of
        candidate *generation*, and its reuse must not skew the evaluation
        cache's hit-rate diagnostics.
        """
        payload = self._reports.get(key)
        if payload is not None:
            self._touched.add(key)
        return payload

    def put_exclusions(self, key: Tuple[str, ...], payload) -> None:
        """Insert an exclusion payload (JSON-able dict; persisted with the store).

        Bounded by ``max_entries`` like the evaluation stores (FIFO), so the
        persisted report set cannot grow without limit either.
        """
        self._bounded_put(self._reports, key, payload)
        self._touched.add(key)
        self._dirty = True

    # -- persistence (see repro.engine.store) -----------------------------------

    @property
    def store(self):
        """The attached :class:`~repro.engine.store.CacheStore` (or ``None``)."""
        return self._store

    @property
    def dirty(self) -> bool:
        """True when the cache holds entries its attached store has not seen."""
        return self._dirty

    def load(self, store) -> int:
        """Bulk-load a persistent store's candidates and reports into this cache.

        Loaded candidates are tracked so later hits on them count as *disk
        hits* (:attr:`CacheStats.disk_hits`); they arrive as undecoded
        handles and materialize on their first warm probe (see
        :meth:`get_candidate`).  Loading never marks the cache dirty — the
        entries are already on disk — and a missing, corrupted or
        version-mismatched store simply loads zero entries.  Returns the
        number of entries loaded.
        """
        # Snapshot-delta: the store's load_stats are cumulative (save() also
        # re-reads internally for its merge), so only the counters this load
        # produced are folded into this cache's stats.
        before = store.load_stats.copy()
        candidates, reports = store.load()
        after = store.load_stats
        self.stats.store_salt_mismatches += (
            after.salt_mismatches - before.salt_mismatches
        )
        self.stats.store_corrupt_entries += (
            after.corrupt_entries - before.corrupt_entries
        )
        self.stats.store_fallback_loads += (
            after.fallback_loads - before.fallback_loads
        )
        for key, value in candidates.items():
            self._bounded_put(self._candidates, key, value)
            self._disk_keys.add(key)
        for key, payload in reports.items():
            # An in-memory report wins over its stored copy.
            if key not in self._reports:
                self._bounded_put(self._reports, key, payload)
        loaded = len(candidates) + len(reports)
        self.loaded_from_disk += loaded
        return loaded

    def save(self, store) -> Optional[int]:
        """Spill candidates and reports to a persistent store (atomic merge).

        The store merges the entries with the directory's current content and
        receives the set of keys this process touched since the last save, so
        its LRU garbage collection refreshes exactly the entries a warm run
        still uses.  Returns the number of entries the store holds after the
        save, or ``None`` when the store is unwritable (best-effort — never
        an error).
        """
        written = store.save(self._candidates, self._reports, touched=self._touched)
        if written is not None:
            self._dirty = False
            self._touched = set()
        return written

    def attach(self, store) -> int:
        """Backing-store hook: load ``store`` and remember it for :meth:`persist`.

        Attaching the already-attached directory again is a no-op, so engines
        and tuning studies sharing one cache never reload the same store.
        Switching to a *different* directory first flushes unsaved entries to
        the old store, so work accumulated for one directory is never
        silently redirected away from it.  Returns the number of entries
        loaded.
        """
        if self._store is not None:
            if os.path.abspath(self._store.cache_dir) == os.path.abspath(
                store.cache_dir
            ):
                return 0
            self.persist()
        self._store = store
        return self.load(store)

    def persist(self) -> Optional[int]:
        """Save to the attached store when there is unsaved content.

        No-op (returns ``None``) without an attached store or when nothing
        changed since the last save; otherwise returns :meth:`save`'s result.
        """
        if self._store is None or not self._dirty:
            return None
        return self.save(self._store)

    # -- maintenance ------------------------------------------------------------

    def __len__(self) -> int:
        # Evaluation entries only; the matrix, layout, answer and validation
        # memos and the exclusion reports are bookkeeping, not evaluations.
        return len(self._structures) + len(self._candidates)

    def clear(self) -> None:
        """Drop all entries (counters are preserved)."""
        self._structures.clear()
        self._candidates.clear()
        self._matrices.clear()
        self._layouts.clear()
        self._reports.clear()
        self._answers.clear()
        self._validated.clear()
        self._disk_keys.clear()
        self._touched.clear()

    def reset_stats(self) -> None:
        """Zero the hit/miss counters (entries are preserved)."""
        self.stats = CacheStats()
