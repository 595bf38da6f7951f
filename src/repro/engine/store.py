"""Persistent on-disk spill of the evaluation cache (warm-start across processes).

Every CLI invocation of the interactive recommend → analyze → tune → simulate
loop used to rebuild the whole evaluation from nothing, because the
:class:`~repro.engine.cache.EvaluationCache` died with the process.  The cache
is content-addressed (sha1 signatures over frozen dataclasses,
:mod:`repro.engine.signature`), so its entries are valid across processes by
construction: a :class:`CacheStore` spills them under a cache directory and a
later process reloads them, making repeated invocations and tuning sessions
start warm.

On-disk format (version 3)
--------------------------

``entries.sqlite``
    One row per *scalar* access-structure entry (arbitrary frozen-dataclass
    graphs, pickled) and per candidate-exclusion report (JSON): the cache key
    (salt-prefixed, JSON-encoded tuple of content signatures) plus the
    payload.  Sqlite gives atomic reads over the many small blobs.  Version 3
    adds an ``access`` bookkeeping table — one row per entry of *any* of the
    three files with its estimated byte size and a last-access generation
    counter — plus ``generation`` / ``dead_bytes`` meta rows, which drive the
    LRU garbage collection and the append/compact write path below.

``structures.npz``
    The per-layout structure batches
    (:class:`~repro.costmodel.batch.AccessStructureBatch`).  They are plain
    numpy columns plus a little string metadata, so they spill to a single
    ``.npz`` (CRC-checked zip of ``.npy`` members) — binary-exact floats, no
    pickle needed.

``candidates.npz``
    Whole-candidate entries as **columnar groups**: all candidates sharing
    one (query classes, weights) shape stack into one metric cube, one disk
    plane, two flag planes and two concatenated allocation vectors, plus one
    JSON metadata member per group.  This replaces the per-candidate pickled
    blob of format 1: a warm process reads a handful of bulk numpy arrays
    instead of unpickling one object graph per spec, and the loaded entries
    stay *deferred* (:class:`~repro.engine.result.CandidateColumns`) until a
    warm probe materializes them under the probing engine context.

Invalidation and trust
----------------------

All files carry a **salt**: a digest over the store format version and the
``repro`` package version.  Every persisted key is prefixed with the same
salt.  A store written by a different format or package version, a truncated
or corrupted file, or an entry that fails to decode is **silently ignored,
never trusted** — the evaluation simply runs cold and overwrites the store
with fresh content.  Persistence is strictly best-effort: no store failure
(unreadable directory, read-only filesystem, concurrent writer) may ever
change a result or crash the advisor, only forfeit the warm start.

Maintenance (version 3)
-----------------------

Saves **merge** into the existing store instead of dumping the writer's cache
last-one-wins: the save first re-reads what the directory holds, unions it
with the in-memory entries (memory wins on key collisions — the values are
content-addressed, so a collision carries the identical value), and writes
the union back.  The sqlite file takes an *append* path — new rows are
inserted into the live database inside one transaction — until the dead
weight left behind by deleted rows exceeds
:data:`COMPACT_DEAD_FRACTION` of the live payload, at which point the file
is compacted: rewritten from scratch through the same temp-then-rename path
every full write uses.  The npz files are rewritten only when their entry
set actually changed.

When the store was built with a byte budget (``max_bytes``, CLI
``--cache-max-mb``), every save garbage-collects the merged union down to
the budget before writing: entries are evicted oldest-first by their
last-access generation (the advisor's in-memory cache reports which entries
the finished sweep touched, so everything a warm run still uses stays young)
and the written files are measured afterwards — eviction repeats until the
directory's actual size fits the budget.

Concurrency
-----------

Full writes are atomic: each file is written to a temporary sibling and then
``os.replace``'d into place; sqlite appends are single transactions on the
live database.  Concurrent CLI invocations sharing a cache directory either
see the complete previous store or the complete new one, never a partial
file, and since every save merges the directory's current content with the
writer's view, the surviving store is a superset of both up to GC.

The scalar structure entries are loaded with :mod:`pickle`, so a cache
directory must be trusted to the same degree as the code itself — point
``--cache-dir`` at a directory you own, not at a shared download location.
"""

from __future__ import annotations

import json
import os
import pickle
import sqlite3
import tempfile
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

import numpy as np

from repro.engine.signature import stable_digest

__all__ = [
    "STORE_FORMAT_VERSION",
    "COMPACT_DEAD_FRACTION",
    "ENTRIES_FILENAME",
    "BATCHES_FILENAME",
    "CANDIDATES_FILENAME",
    "CacheStore",
    "StoreLoadStats",
    "store_salt",
]

#: Bump on any incompatible change to the on-disk layout; old stores are then
#: silently ignored (and overwritten on the next save).  Version 2 introduced
#: the columnar candidate file and the exclusion-report rows; version 3 the
#: access-tracking table behind the LRU garbage collection.
STORE_FORMAT_VERSION = 3

#: Compact (full temp-then-rename rewrite of) the sqlite file when the dead
#: weight of replaced/deleted rows exceeds this fraction of the live payload.
COMPACT_DEAD_FRACTION = 0.5

#: Estimated fixed per-entry overhead (sqlite row / npz member headers).
_ENTRY_OVERHEAD_BYTES = 512
#: Estimated fixed per-store overhead (sqlite page tree, npz/zip directory).
_BASE_OVERHEAD_BYTES = 24 * 1024
#: Hard cap on write→measure→evict rounds of one budgeted save.
_MAX_GC_ROUNDS = 8

#: Scalar-structure and exclusion-report entries (sqlite).
ENTRIES_FILENAME = "entries.sqlite"
#: Per-layout structure batches (single npz, numpy columns).
BATCHES_FILENAME = "structures.npz"
#: Whole-candidate entries (single npz, columnar groups).
CANDIDATES_FILENAME = "candidates.npz"

#: numpy-array fields of :class:`~repro.costmodel.batch.AccessStructureBatch`,
#: spilled verbatim as npz columns (dtypes preserved, floats binary-exact).
_BATCH_ARRAY_FIELDS = (
    "fragments_accessed",
    "rows_in_accessed_fragments",
    "qualifying_rows",
    "rows_per_fragment",
    "fact_pages_per_fragment",
    "forced_full_scan",
    "has_residuals",
    "bitmap_touched_per_fragment",
    "bitmap_density",
    "index_class",
    "index_pages",
    "bitmap_pages_per_fragment",
    "bitmap_index_counts",
)


def store_salt() -> str:
    """The store's version salt: format version + ``repro`` package version.

    Prefixes every persisted key and is checked file-wide on load, so a store
    written by any other format or package version can never be trusted by
    accident.
    """
    # Imported lazily: repro/__init__ imports repro.engine before defining
    # __version__, so a module-level import would see a partial package.
    from repro import __version__

    return stable_digest("warlock-cache-store", str(STORE_FORMAT_VERSION), __version__)


def _encode_key(salt: str, key: Tuple[str, ...]) -> str:
    """Serialize a cache key tuple, prefixed with the version salt."""
    return json.dumps([salt, *key])


def _decode_key(salt: str, text: str) -> Optional[Tuple[str, ...]]:
    """Parse a persisted key; ``None`` when malformed or salted differently."""
    parts = json.loads(text)
    if (
        not isinstance(parts, list)
        or len(parts) < 2
        or parts[0] != salt
        or not all(isinstance(part, str) for part in parts)
    ):
        return None
    return tuple(parts[1:])


@dataclass
class StoreLoadStats:
    """Cumulative robustness counters of a store's silent degradations.

    The store's contract is "all failures degrade to no store, never to an
    error" — which is right for results, but operators still need to *see*
    the degradations (a recurring corrupt file means a disk problem or a
    writer bug, a salt mismatch after every deploy means the store directory
    is shared across incompatible versions).  Counters are cumulative over
    the store object's life and cover every read path, including
    :meth:`CacheStore.save`'s internal merge re-reads; consumers wanting
    per-``load()`` deltas snapshot around the call (see
    :meth:`~repro.engine.cache.EvaluationCache.load`).
    """

    #: Whole files skipped because their version salt did not match.
    salt_mismatches: int = 0
    #: Individual entries/groups skipped (undecodable payloads, malformed
    #: or foreign-salted keys) while the rest of the file loaded fine.
    corrupt_entries: int = 0
    #: Whole files abandoned by the catch-all fallback (truncated sqlite,
    #: unreadable npz, stale format).
    fallback_loads: int = 0

    def copy(self) -> "StoreLoadStats":
        """A snapshot (for delta computation around one ``load()``)."""
        return StoreLoadStats(
            salt_mismatches=self.salt_mismatches,
            corrupt_entries=self.corrupt_entries,
            fallback_loads=self.fallback_loads,
        )


class CacheStore:
    """One persistent cache directory (see the module docstring for format).

    The store is deliberately stateless between calls: :meth:`load` reads
    whatever the directory currently holds, :meth:`save` merges into it (and
    garbage-collects when a byte budget is set).  All failures — missing
    directory, corruption, version mismatch, unwritable filesystem — degrade
    to "no store", never to an error; :attr:`load_stats` counts those silent
    degradations so health probes can surface them.

    Parameters
    ----------
    cache_dir:
        Directory holding the three store files.
    max_bytes:
        Byte budget of the whole directory (``None`` = unbounded): after
        every save the store's files must not exceed it, least-recently-used
        entries being evicted first.
    """

    def __init__(self, cache_dir, max_bytes: Optional[int] = None) -> None:
        self.cache_dir = os.fspath(cache_dir)
        self.salt = store_salt()
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive when set, got {max_bytes}")
        self.max_bytes = max_bytes
        #: Robustness counters over every read this store object performed.
        self.load_stats = StoreLoadStats()

    @property
    def entries_path(self) -> str:
        """Path of the sqlite entry file (scalar structures + reports)."""
        return os.path.join(self.cache_dir, ENTRIES_FILENAME)

    @property
    def batches_path(self) -> str:
        """Path of the npz batch file (per-layout structure batches)."""
        return os.path.join(self.cache_dir, BATCHES_FILENAME)

    @property
    def candidates_path(self) -> str:
        """Path of the npz candidate file (columnar candidate groups)."""
        return os.path.join(self.cache_dir, CANDIDATES_FILENAME)

    # -- load -------------------------------------------------------------------

    def load(
        self,
    ) -> Tuple[
        Dict[Tuple[str, ...], Any],
        Dict[Tuple[str, ...], Any],
        Dict[Tuple[str, ...], Any],
    ]:
        """Read the store: ``(structures, candidates, exclusion reports)``.

        Structure entries cover both the scalar per-query structures and the
        per-layout batches (they share one cache dict); candidate entries are
        deferred :class:`~repro.engine.result.CandidateColumns` records.
        Returns empty dicts for anything missing, corrupted or
        version-mismatched.
        """
        structures = self._load_batches()
        scalar, reports = self._load_entries()
        structures.update(scalar)
        candidates = self._load_candidates()
        return structures, candidates, reports

    def _load_entries(self):
        structures: Dict[Tuple[str, ...], Any] = {}
        reports: Dict[Tuple[str, ...], Any] = {}
        path = self.entries_path
        try:
            if not os.path.exists(path):
                return {}, {}
            # Read-only URI: never create or lock-upgrade the file while a
            # concurrent invocation may be replacing it.
            connection = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
            try:
                rows = connection.execute(
                    "SELECT value FROM meta WHERE key = 'salt'"
                ).fetchall()
                if not rows or rows[0][0] != self.salt:
                    self.load_stats.salt_mismatches += 1
                    return {}, {}
                for key_text, kind, payload in connection.execute(
                    "SELECT key, kind, payload FROM entries"
                ):
                    # Per-entry skip: one undecodable row (truncated pickle,
                    # class drift in a dev checkout) forfeits that entry only,
                    # not the whole warm start.
                    try:
                        key = _decode_key(self.salt, key_text)
                        if key is None:
                            self.load_stats.corrupt_entries += 1
                            continue
                        if kind == "report":
                            reports[key] = json.loads(payload.decode("utf-8"))
                        else:
                            structures[key] = pickle.loads(payload)
                    except Exception:
                        self.load_stats.corrupt_entries += 1
                        continue
            finally:
                connection.close()
        except Exception:
            # Stale format, truncated file, undecodable entry: never trusted.
            self.load_stats.fallback_loads += 1
            return {}, {}
        return structures, reports

    def _load_batches(self) -> Dict[Tuple[str, ...], Any]:
        from repro.costmodel.batch import AccessStructureBatch

        entries: Dict[Tuple[str, ...], Any] = {}
        path = self.batches_path
        try:
            if not os.path.exists(path):
                return {}
            with np.load(path, allow_pickle=False) as data:
                if str(data["__salt__"][()]) != self.salt:
                    self.load_stats.salt_mismatches += 1
                    return {}
                keys = json.loads(str(data["__index__"][()]))
                for i, parts in enumerate(keys):
                    # Per-entry skip, as for the sqlite rows.
                    try:
                        key = _decode_key(self.salt, json.dumps(parts))
                        if key is None:
                            self.load_stats.corrupt_entries += 1
                            continue
                        meta = json.loads(str(data[f"{i}/meta"][()]))
                        arrays = {
                            name: data[f"{i}/{name}"] for name in _BATCH_ARRAY_FIELDS
                        }
                        entries[key] = AccessStructureBatch(
                            query_names=tuple(meta["query_names"]),
                            fragments_total=int(meta["fragments_total"]),
                            index_attributes=tuple(
                                (dimension, level)
                                for dimension, level in meta["index_attributes"]
                            ),
                            **arrays,
                        )
                    except Exception:
                        self.load_stats.corrupt_entries += 1
                        continue
        except Exception:
            self.load_stats.fallback_loads += 1
            return {}
        return entries

    def _load_candidates(self) -> Dict[Tuple[str, ...], Any]:
        from repro.costmodel import EvaluationColumns
        from repro.engine.result import CandidateColumns

        entries: Dict[Tuple[str, ...], Any] = {}
        path = self.candidates_path
        try:
            if not os.path.exists(path):
                return {}
            with np.load(path, allow_pickle=False) as data:
                if str(data["__salt__"][()]) != self.salt:
                    self.load_stats.salt_mismatches += 1
                    return {}
                num_groups = int(data["__groups__"][()])
                for g in range(num_groups):
                    # Per-group skip: one bad group forfeits its candidates
                    # only, not the whole warm start.
                    try:
                        meta = json.loads(str(data[f"c{g}/meta"][()]))
                        metrics = data[f"c{g}/metrics"]
                        disks = data[f"c{g}/disks"]
                        sequential = data[f"c{g}/sequential"]
                        forced = data[f"c{g}/forced"]
                        alloc_disks = data[f"c{g}/alloc_disks"]
                        alloc_pages = data[f"c{g}/alloc_pages"]
                        query_names = tuple(meta["query_names"])
                        weights = tuple(meta["weights"])
                        offsets = meta["alloc_offsets"]
                    except Exception:
                        self.load_stats.corrupt_entries += 1
                        continue
                    for j, key_parts in enumerate(meta["keys"]):
                        try:
                            key = _decode_key(self.salt, json.dumps(key_parts))
                            if key is None:
                                self.load_stats.corrupt_entries += 1
                                continue
                            # All per-candidate slices are copied: a view
                            # would pin the group's whole stacked cube (or
                            # concatenated allocation vector) alive for as
                            # long as any single candidate survives in the
                            # in-memory cache.
                            entries[key] = CandidateColumns(
                                columns=EvaluationColumns(
                                    query_names=query_names,
                                    weights=weights,
                                    fragments_total=int(
                                        meta["fragments_total"][j]
                                    ),
                                    metrics=metrics[j].copy(),
                                    disks_used=disks[j].copy(),
                                    sequential=sequential[j].copy(),
                                    forced=forced[j].copy(),
                                    attributes_used=tuple(
                                        tuple(
                                            tuple(pair)
                                            for pair in class_attributes
                                        )
                                        for class_attributes in meta[
                                            "attributes_used"
                                        ][j]
                                    ),
                                ),
                                prefetch=tuple(meta["prefetch"][j]),
                                allocation_scheme=meta["allocation_schemes"][j],
                                allocation_disks=alloc_disks[
                                    offsets[j] : offsets[j + 1]
                                ].copy(),
                                allocation_pages=alloc_pages[
                                    offsets[j] : offsets[j + 1]
                                ].copy(),
                            )
                        except Exception:
                            self.load_stats.corrupt_entries += 1
                            continue
        except Exception:
            self.load_stats.fallback_loads += 1
            return {}
        return entries

    # -- save -------------------------------------------------------------------

    def save(
        self,
        structures: Mapping[Tuple[str, ...], Any],
        candidates: Mapping[Tuple[str, ...], Any],
        reports: Optional[Mapping[Tuple[str, ...], Any]] = None,
        touched: Optional[set] = None,
    ) -> Optional[int]:
        """Merge the given cache content into the store (append+compact, GC'd).

        The directory's current entries are unioned with the provided ones
        (provided entries win on key collisions; the keys are content
        signatures, so a collision carries the identical value), the union is
        garbage-collected down to ``max_bytes`` when a budget is set, and the
        three files are written — the sqlite file through an in-place append
        (compacted via the atomic temp-then-rename path once its dead weight
        crosses :data:`COMPACT_DEAD_FRACTION`), the npz files only when their
        entry set changed.

        ``touched`` names the cache keys the writing process actually used
        (hit or inserted) this run: their last-access generation is
        refreshed, everything else keeps its age.  ``None`` refreshes every
        provided entry.

        Returns the number of entries the store holds after the save, or
        ``None`` when the store could not be written (best-effort: the
        evaluation already succeeded, only the warm start of the *next*
        process is forfeited).
        """
        from repro.costmodel.batch import AccessStructureBatch
        from repro.engine.result import CandidateColumns

        reports = {} if reports is None else reports
        scalar: Dict[Tuple[str, ...], Any] = {}
        batches: Dict[Tuple[str, ...], Any] = {}
        for key, value in structures.items():
            (batches if isinstance(value, AccessStructureBatch) else scalar)[key] = value
        try:
            os.makedirs(self.cache_dir, exist_ok=True)
            records = {
                key: (
                    value
                    if isinstance(value, CandidateColumns)
                    else CandidateColumns.from_candidate(value)
                )
                for key, value in candidates.items()
            }
            disk_scalar, disk_reports = self._load_entries()
            disk_batches = self._load_batches()
            disk_candidates = self._load_candidates()
            disk_keys = {
                "structure": set(disk_scalar),
                "report": set(disk_reports),
                "batch": set(disk_batches),
                "candidate": set(disk_candidates),
            }
            merged: Dict[str, Dict[Tuple[str, ...], Any]] = {
                "structure": {**disk_scalar, **scalar},
                "report": {**disk_reports, **reports},
                "batch": {**disk_batches, **batches},
                "candidate": {**disk_candidates, **records},
            }
            provided = {
                "structure": set(scalar),
                "report": set(reports),
                "batch": set(batches),
                "candidate": set(records),
            }
            old_access, generation, dead_bytes = self._read_access_state()
            generation += 1
            payloads = self._encode_payloads(merged)
            new_access: Dict[Tuple[str, ...], Tuple[str, int, int]] = {}
            for kind, entries in merged.items():
                for key in entries:
                    old = old_access.get(key)
                    refreshed = (
                        key in provided[kind] if touched is None else key in touched
                    )
                    new_access[key] = (
                        kind,
                        self._entry_bytes(kind, key, merged, payloads),
                        generation if refreshed or old is None else old[2],
                    )
            self._collect_and_write(
                merged, new_access, payloads, disk_keys, old_access,
                generation, dead_bytes,
            )
        except Exception:
            return None
        return sum(len(entries) for entries in merged.values())

    def _read_access_state(self):
        """``(access map, generation, dead bytes)`` from the live sqlite file.

        Best-effort like every read: a missing, corrupted or foreign-salted
        file yields empty bookkeeping, which simply makes every entry "new".
        """
        path = self.entries_path
        try:
            if not os.path.exists(path):
                return {}, 0, 0
            connection = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
            try:
                rows = connection.execute(
                    "SELECT value FROM meta WHERE key = 'salt'"
                ).fetchall()
                if not rows or rows[0][0] != self.salt:
                    return {}, 0, 0
                generation = 0
                dead_bytes = 0
                for key, value in connection.execute("SELECT key, value FROM meta"):
                    try:
                        if key == "generation":
                            generation = int(value)
                        elif key == "dead_bytes":
                            dead_bytes = int(value)
                    except (TypeError, ValueError):
                        continue
                access: Dict[Tuple[str, ...], Tuple[str, int, int]] = {}
                for key_text, kind, nbytes, last in connection.execute(
                    "SELECT key, kind, bytes, last_access FROM access"
                ):
                    try:
                        key = _decode_key(self.salt, key_text)
                        if key is None:
                            continue
                        access[key] = (str(kind), int(nbytes), int(last))
                    except Exception:
                        continue
                return access, generation, dead_bytes
            finally:
                connection.close()
        except Exception:
            return {}, 0, 0

    def _encode_payloads(self, merged):
        """The sqlite payload blobs of the merged scalar/report entries."""
        payloads: Dict[Tuple[str, Tuple[str, ...]], bytes] = {}
        for key, value in merged["structure"].items():
            payloads[("structure", key)] = pickle.dumps(
                value, protocol=pickle.HIGHEST_PROTOCOL
            )
        for key, value in merged["report"].items():
            payloads[("report", key)] = json.dumps(value).encode("utf-8")
        return payloads

    @staticmethod
    def _entry_bytes(kind, key, merged, payloads) -> int:
        """Estimated on-disk footprint of one entry (payload + fixed overhead)."""
        if kind in ("structure", "report"):
            return len(payloads[(kind, key)]) + _ENTRY_OVERHEAD_BYTES
        value = merged[kind][key]
        if kind == "batch":
            total = sum(
                np.asarray(getattr(value, name)).nbytes
                for name in _BATCH_ARRAY_FIELDS
            )
        else:
            columns = value.columns
            total = (
                columns.metrics.nbytes
                + columns.disks_used.nbytes
                + columns.sequential.nbytes
                + columns.forced.nbytes
                + np.asarray(value.allocation_disks).nbytes
                + np.asarray(value.allocation_pages).nbytes
            )
        return int(total) + _ENTRY_OVERHEAD_BYTES

    def _select_evictions(self, new_access, over_bytes: Optional[int] = None):
        """Oldest-first eviction set covering the (estimated or measured) excess.

        Ordering is deterministic: ascending last-access generation, ties by
        kind then key.
        """
        if self.max_bytes is None:
            return set()
        if over_bytes is None:
            total = _BASE_OVERHEAD_BYTES + sum(
                nbytes for _, nbytes, _ in new_access.values()
            )
            over_bytes = total - self.max_bytes
        if over_bytes <= 0:
            return set()
        evicted = set()
        for key, (kind, nbytes, last) in sorted(
            new_access.items(), key=lambda item: (item[1][2], item[1][0], item[0])
        ):
            if over_bytes <= 0:
                break
            evicted.add(key)
            over_bytes -= nbytes
        return evicted

    @staticmethod
    def _drop(merged, new_access, payloads, evicted) -> None:
        for key in evicted:
            kind = new_access.pop(key)[0]
            merged[kind].pop(key, None)
            payloads.pop((kind, key), None)

    def _store_bytes(self) -> int:
        """Actual byte size of the three store files (missing files count 0)."""
        total = 0
        for path in (self.entries_path, self.batches_path, self.candidates_path):
            try:
                total += os.path.getsize(path)
            except OSError:
                continue
        return total

    def _collect_and_write(
        self, merged, new_access, payloads, disk_keys, old_access,
        generation, dead_bytes,
    ) -> None:
        """GC the merged union to the byte budget, then write the files.

        Without a budget this is one plain write.  With one, the estimated
        total is trimmed before writing, the written files are *measured*,
        and eviction repeats oldest-first until the directory actually fits —
        estimates only steer, the budget is enforced on real file sizes.  A
        budget no store can fit (smaller than the fixed file overheads)
        removes the files entirely.
        """
        evicted = self._select_evictions(new_access)
        self._drop(merged, new_access, payloads, evicted)
        force_full = False
        for _ in range(_MAX_GC_ROUNDS):
            self._write_files(
                merged, new_access, payloads, disk_keys, old_access,
                generation, dead_bytes, force_full,
            )
            measured = self._store_bytes()
            if self.max_bytes is None or measured <= self.max_bytes:
                return
            if not new_access:
                break
            over = measured - self.max_bytes
            # The per-entry sizes steering the eviction are payload
            # *estimates*; on disk every entry also pays format overhead
            # (zip headers, sqlite pages) the estimate cannot see.  Translate
            # the measured excess into estimate units before selecting: a
            # store whose files run 2-3x the estimate would otherwise free
            # 2-3x too many entries — down to an empty directory — in one
            # round.  Undershooting is safe; the next round measures again.
            estimated = _BASE_OVERHEAD_BYTES + sum(
                nbytes for _, nbytes, _ in new_access.values()
            )
            if measured > estimated:
                over = -(-over * estimated // measured)
            evicted = self._select_evictions(new_access, over_bytes=over)
            if not evicted:
                evicted = {
                    min(
                        new_access,
                        key=lambda k: (new_access[k][2], new_access[k][0], k),
                    )
                }
            self._drop(merged, new_access, payloads, evicted)
            force_full = True
        # Still over budget with nothing (left) to evict — or the rounds ran
        # out: the budget wins over keeping a store at all.
        self._drop(merged, new_access, payloads, set(new_access))
        for path in (self.entries_path, self.batches_path, self.candidates_path):
            try:
                os.unlink(path)
            except OSError:
                continue

    def _write_files(
        self, merged, new_access, payloads, disk_keys, old_access,
        generation, dead_bytes, force_full,
    ) -> None:
        if (
            force_full
            or set(merged["batch"]) != disk_keys["batch"]
            or not os.path.exists(self.batches_path)
        ):
            self._save_batches(merged["batch"])
        if (
            force_full
            or set(merged["candidate"]) != disk_keys["candidate"]
            or not os.path.exists(self.candidates_path)
        ):
            self._save_candidates(merged["candidate"])
        self._write_entries(
            merged, new_access, payloads, disk_keys, old_access,
            generation, dead_bytes, force_full,
        )

    def _write_entries(
        self, merged, new_access, payloads, disk_keys, old_access,
        generation, dead_bytes, force_full,
    ) -> None:
        """Append into the live sqlite file, or compact it via a full rewrite.

        The append path inserts only rows the file does not hold yet and
        deletes evicted ones inside a single transaction; the bytes freed by
        deletions accumulate as *dead weight* (sqlite recycles pages
        internally but never shrinks the file) and trigger the compaction —
        the same atomic temp-then-rename full write a fresh store gets.
        """
        sqlite_disk_keys = disk_keys["structure"] | disk_keys["report"]
        sqlite_keys = set(merged["structure"]) | set(merged["report"])
        deleted = sqlite_disk_keys - sqlite_keys
        dead = dead_bytes + sum(
            old_access[key][1] if key in old_access else _ENTRY_OVERHEAD_BYTES
            for key in deleted
        )
        live_bytes = sum(len(payload) for payload in payloads.values())
        access_rows = [
            (_encode_key(self.salt, key), kind, int(nbytes), int(last))
            for key, (kind, nbytes, last) in new_access.items()
        ]
        if (
            not force_full
            and os.path.exists(self.entries_path)
            and dead <= COMPACT_DEAD_FRACTION * max(live_bytes, 1)
        ):
            new_rows = []
            for key in sqlite_keys - sqlite_disk_keys:
                kind = "structure" if key in merged["structure"] else "report"
                new_rows.append(
                    (_encode_key(self.salt, key), kind, payloads[(kind, key)])
                )
            try:
                self._append_entries(new_rows, deleted, access_rows, generation, dead)
                return
            except Exception:
                # Foreign salt, locked or tampered file: fall through to the
                # atomic full rewrite, which replaces it wholesale.
                pass
        self._write_entries_full(merged, payloads, access_rows, generation)

    def _append_entries(
        self, new_rows, deleted_keys, access_rows, generation, dead_bytes
    ) -> None:
        connection = sqlite3.connect(self.entries_path)
        try:
            with connection:
                rows = connection.execute(
                    "SELECT value FROM meta WHERE key = 'salt'"
                ).fetchall()
                if not rows or rows[0][0] != self.salt:
                    raise ValueError("store salt mismatch")
                connection.executemany(
                    "INSERT OR REPLACE INTO entries VALUES (?, ?, ?)", new_rows
                )
                connection.executemany(
                    "DELETE FROM entries WHERE key = ?",
                    [(_encode_key(self.salt, key),) for key in deleted_keys],
                )
                connection.execute(
                    "CREATE TABLE IF NOT EXISTS access "
                    "(key TEXT PRIMARY KEY, kind TEXT NOT NULL, "
                    "bytes INTEGER NOT NULL, last_access INTEGER NOT NULL)"
                )
                connection.execute("DELETE FROM access")
                connection.executemany(
                    "INSERT INTO access VALUES (?, ?, ?, ?)", access_rows
                )
                connection.executemany(
                    "INSERT OR REPLACE INTO meta VALUES (?, ?)",
                    [
                        ("generation", str(generation)),
                        ("dead_bytes", str(int(dead_bytes))),
                    ],
                )
        finally:
            connection.close()

    def _write_entries_full(self, merged, payloads, access_rows, generation) -> None:
        rows = []
        for kind in ("structure", "report"):
            for key in merged[kind]:
                rows.append((_encode_key(self.salt, key), kind, payloads[(kind, key)]))

        def write(tmp_path: str) -> None:
            connection = sqlite3.connect(tmp_path)
            try:
                connection.execute(
                    "CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT)"
                )
                connection.execute(
                    "CREATE TABLE entries "
                    "(key TEXT PRIMARY KEY, kind TEXT NOT NULL, payload BLOB NOT NULL)"
                )
                connection.execute(
                    "CREATE TABLE access "
                    "(key TEXT PRIMARY KEY, kind TEXT NOT NULL, "
                    "bytes INTEGER NOT NULL, last_access INTEGER NOT NULL)"
                )
                connection.executemany(
                    "INSERT INTO meta VALUES (?, ?)",
                    [
                        ("salt", self.salt),
                        ("generation", str(generation)),
                        ("dead_bytes", "0"),
                    ],
                )
                connection.executemany(
                    "INSERT OR REPLACE INTO entries VALUES (?, ?, ?)", rows
                )
                connection.executemany(
                    "INSERT INTO access VALUES (?, ?, ?, ?)", access_rows
                )
                connection.commit()
            finally:
                connection.close()

        self._atomic_write(self.entries_path, write)

    def _atomic_write(self, final_path: str, write):
        """Run ``write(tmp_path)`` then rename the temp file into place."""
        fd, tmp_path = tempfile.mkstemp(
            dir=self.cache_dir, prefix=".store-", suffix=".tmp"
        )
        os.close(fd)
        try:
            write(tmp_path)
            os.replace(tmp_path, final_path)
        finally:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)

    def _save_batches(self, batches) -> None:
        arrays: Dict[str, np.ndarray] = {
            "__salt__": np.array(self.salt),
            "__index__": np.array(
                json.dumps([[self.salt, *key] for key in batches])
            ),
        }
        for i, batch in enumerate(batches.values()):
            arrays[f"{i}/meta"] = np.array(
                json.dumps(
                    {
                        "query_names": list(batch.query_names),
                        "fragments_total": batch.fragments_total,
                        "index_attributes": [
                            list(pair) for pair in batch.index_attributes
                        ],
                    }
                )
            )
            for name in _BATCH_ARRAY_FIELDS:
                arrays[f"{i}/{name}"] = getattr(batch, name)

        def write(tmp_path: str) -> None:
            with open(tmp_path, "wb") as handle:
                np.savez(handle, **arrays)

        self._atomic_write(self.batches_path, write)

    def _save_candidates(self, candidates) -> None:
        from repro.engine.result import CandidateColumns

        # Group the candidates by class shape: every group stacks into one
        # metric cube plus concatenated allocation vectors.  Weight floats
        # round-trip exactly through JSON (repr-based shortest encoding);
        # every metric float stays binary in the npz.
        groups: Dict[Tuple, list] = {}
        for key, value in candidates.items():
            record = (
                value
                if isinstance(value, CandidateColumns)
                else CandidateColumns.from_candidate(value)
            )
            shape = (record.columns.query_names, record.columns.weights)
            groups.setdefault(shape, []).append((key, record))

        arrays: Dict[str, np.ndarray] = {
            "__salt__": np.array(self.salt),
            "__groups__": np.array(len(groups)),
        }
        for g, ((query_names, weights), members) in enumerate(groups.items()):
            offsets = [0]
            for _, record in members:
                offsets.append(offsets[-1] + len(record.allocation_disks))
            meta = {
                "keys": [[self.salt, *key] for key, _ in members],
                "query_names": list(query_names),
                "weights": list(weights),
                "fragments_total": [
                    record.columns.fragments_total for _, record in members
                ],
                "prefetch": [list(record.prefetch) for _, record in members],
                "allocation_schemes": [
                    record.allocation_scheme for _, record in members
                ],
                "attributes_used": [
                    [
                        [list(pair) for pair in class_attributes]
                        for class_attributes in record.columns.attributes_used
                    ]
                    for _, record in members
                ],
                "alloc_offsets": offsets,
            }
            arrays[f"c{g}/meta"] = np.array(json.dumps(meta))
            arrays[f"c{g}/metrics"] = np.stack(
                [record.columns.metrics for _, record in members]
            )
            arrays[f"c{g}/disks"] = np.stack(
                [record.columns.disks_used for _, record in members]
            )
            arrays[f"c{g}/sequential"] = np.stack(
                [record.columns.sequential for _, record in members]
            )
            arrays[f"c{g}/forced"] = np.stack(
                [record.columns.forced for _, record in members]
            )
            arrays[f"c{g}/alloc_disks"] = np.concatenate(
                [record.allocation_disks for _, record in members]
            )
            arrays[f"c{g}/alloc_pages"] = np.concatenate(
                [record.allocation_pages for _, record in members]
            )

        def write(tmp_path: str) -> None:
            with open(tmp_path, "wb") as handle:
                np.savez(handle, **arrays)

        self._atomic_write(self.candidates_path, write)
