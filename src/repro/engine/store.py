"""Persistent on-disk spill of the evaluation cache (warm-start across processes).

Every CLI invocation of the interactive recommend → analyze → tune → simulate
loop used to rebuild the whole evaluation from nothing, because the
:class:`~repro.engine.cache.EvaluationCache` died with the process.  The cache
is content-addressed (sha1 signatures over frozen dataclasses,
:mod:`repro.engine.signature`), so its entries are valid across processes by
construction: a :class:`CacheStore` spills them under a cache directory and a
later process reloads them, making repeated invocations and tuning sessions
start warm.

On-disk format (version 7)
--------------------------

The store is one file, ``candidates.npz``, holding only what a warm start
reads and cannot derive:

Candidate groups (``c{g}/...``)
    Whole-candidate entries as **columnar groups**: all candidates sharing
    one (query classes, weights) shape stack into one metric cube, one disk
    plane and two flag planes.  Each group also holds its salted keys
    (``keys``), its small per-candidate fields (``meta``: prefetch granules,
    allocation schemes and fragment counts), its bitmap attributes as
    integer columns — the group's distinct ``[dimension, level]`` pairs
    (``attr_table``), the number of pairs per candidate and class
    (``attr_counts``) and the flat table codes (``attr_codes``) —
    ``alloc_disks``, the disk ids of its ``greedy_size`` rows only, each
    row's span as long as its fragment count, and ``last_access``, each
    candidate's last-access generation.  JSON members are stored as UTF-8
    bytes.

``reports``
    One JSON member listing the candidate-exclusion reports, each as
    ``[salted key, payload, last-access generation]``.

``__salt__``, ``__groups__``, ``__generation__``
    The version salt, the number of candidate groups, and the generation
    counter of the saves, which the last-access ages count in.

Nothing the probing context determines is stored: a round-robin placement
is a rule of the fragment index, and every fragment's page count is
:func:`~repro.allocation.fragment_total_pages` of the layout the probe
rebuilds anyway, so both are derived on materialization.

A load reads each group's members once, checks the whole group with array
operations (shapes, spans, codes, value ranges; a failing group is skipped)
and maps every key to a :class:`StoredCandidate` handle — no per-candidate
copy, no per-class tuple.  A handle decodes its one candidate into a
:class:`~repro.engine.result.CandidateColumns` record on its first warm
probe, which materializes it under the probing engine context, so an
activation pays only for the candidates it asks for.

Access structures are memory-only.  A sweep recomputes its structure
batches in a few tens of milliseconds, less than unpacking them from disk
took.  Format 3 persisted them in a ``structures.npz``, and format 6 kept
the reports and ages in a second file without a checksum
(:data:`ENTRIES_FILENAME`); no load reads either file, and every save
unlinks both.

Invalidation and trust
----------------------

The file carries a **salt**: a digest over the store format version and the
``repro`` package version.  Every persisted key is prefixed with the same
salt.  A store written by a different format or package version, a
truncated or corrupted file, or an entry that fails to decode is **silently
ignored, never trusted** — the evaluation simply runs cold and overwrites
the store with fresh content.  The zip's CRC-32 covers every byte of every
member, and a load reads each member to its end, so the checksum is always
verified: ``np.load`` stops where a member's npy header says, and a damaged
header length would shift the array onto other bytes with the checksum
unread.  A stored candidate holding a non-finite metric, a fragment count
that is not its rebuilt layout's, or a greedy disk id past the probing
system's disk count is caught at the probe: the cache counts it corrupt and
evaluates that candidate cold.  Persistence is strictly best-effort: no
store failure (unreadable directory, read-only filesystem, concurrent
writer) may ever change a result or crash the advisor, only forfeit the
warm start.  Loads read only npy arrays (``allow_pickle=False``) and JSON,
so a store file never executes code.

Maintenance
-----------

Saves **merge** into the existing store instead of dumping the writer's cache
last-one-wins: the save first re-reads what the directory holds, unions it
with the in-memory entries (memory wins on key collisions — the values are
content-addressed, so a collision carries the identical value), and writes
the union back.  Every save rewrites the one file whole.

When the store was built with a byte budget (``max_bytes``, CLI
``--cache-max-mb``), every save garbage-collects the merged union down to
the budget before writing: entries are evicted oldest-first by their
last-access generation (the advisor's in-memory cache reports which entries
the finished sweep touched, so everything a warm run still uses stays young)
and the written file is measured afterwards — eviction repeats until its
actual size fits the budget.

Concurrency
-----------

Every write is atomic: the file is written to a temporary sibling and then
``os.replace``'d into place.  Concurrent CLI invocations sharing a cache
directory either see the whole previous store or the whole new one, never
a partial file, and since every save merges the directory's current content
with the writer's view, the surviving store is a superset of both up to GC.
"""

from __future__ import annotations

import json
import os
import tempfile
import zipfile
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional, Set, Tuple, Union

import numpy as np

from repro.engine.signature import stable_digest

if TYPE_CHECKING:
    from repro.engine.result import CandidateColumns

__all__ = [
    "STORE_FORMAT_VERSION",
    "ENTRIES_FILENAME",
    "BATCHES_FILENAME",
    "CANDIDATES_FILENAME",
    "CacheStore",
    "StoreLoadStats",
    "StoredCandidate",
    "CorruptCandidate",
    "store_salt",
]

#: Bump on any incompatible change to the on-disk layout; old stores are then
#: silently ignored (and overwritten on the next save).  Version 2 introduced
#: the columnar candidate file and the exclusion-report rows; version 3 the
#: access-tracking table behind the LRU garbage collection; version 4 dropped
#: the persisted access structures (pickled scalar rows and npz batches);
#: version 5 moved the keys and the bitmap attributes out of the candidate
#: groups' JSON metadata into their own members (attributes as integer codes);
#: version 6 dropped the page vectors and the round-robin disk ids, which a
#: warm probe derives from the layout it rebuilds; version 7 moved the
#: exclusion reports and the last-access ages into the npz, the one file.
STORE_FORMAT_VERSION = 7

#: Estimated fixed per-entry overhead (salted key, per-row fields).
_ENTRY_OVERHEAD_BYTES = 512
#: Estimated fixed per-store overhead (zip directory and member headers of
#: a one-group store; format 6's second file needed 24 KB).
_BASE_OVERHEAD_BYTES = 4 * 1024
#: Hard cap on write→measure→evict rounds of one budgeted save.
_MAX_GC_ROUNDS = 8

#: Format 6's report and access-table file; no longer read, unlinked on save.
ENTRIES_FILENAME = "entries.sqlite"
#: Format 3's per-layout structure batches; no longer read, unlinked on save.
BATCHES_FILENAME = "structures.npz"
#: The store: candidate groups, exclusion reports and last-access ages.
CANDIDATES_FILENAME = "candidates.npz"

#: The allocation schemes a stored candidate may name (``repro.allocation``).
_ALLOCATION_SCHEMES = frozenset({"round_robin", "greedy_size"})


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


def _key_from_parts(salt: str, parts: Any) -> Optional[Tuple[str, ...]]:
    """The key of a decoded ``[salt, *key]`` list; ``None`` when malformed."""
    if (
        not isinstance(parts, list)
        or len(parts) < 2
        or parts[0] != salt
        or not all(isinstance(part, str) for part in parts)
    ):
        return None
    return tuple(parts[1:])


def _json_member(value: Any) -> np.ndarray:
    """A JSON value as an npz member: its UTF-8 text as a byte vector."""
    return np.frombuffer(json.dumps(value).encode("utf-8"), dtype=np.uint8)


def _read_json(member: np.ndarray) -> Any:
    """Parse a member written by :func:`_json_member`."""
    _require(member.dtype == np.uint8 and member.ndim == 1)
    return json.loads(member.tobytes())


def _require(condition: Any) -> None:
    """Reject a store member that fails one of its load checks."""
    if not condition:
        raise ValueError("malformed store member")


def _read_member(archive: zipfile.ZipFile, name: str) -> np.ndarray:
    """Read one npz member to its end, so its CRC-32 is always checked.

    Raises when the member is missing, fails its checksum or holds bytes
    past the array its header describes.
    """
    with archive.open(name + ".npy") as handle:
        array = np.lib.format.read_array(handle, allow_pickle=False)
        _require(not handle.read(1))
    return array


class CorruptCandidate(ValueError):
    """Raised when one stored candidate fails the check of its decode."""


@dataclass(frozen=True)
class _CandidateGroup:
    """One loaded, checked candidate group (see :func:`_read_group`)."""

    query_names: Tuple[str, ...]
    weights: Tuple[float, ...]
    metrics: np.ndarray
    disks: np.ndarray
    sequential: np.ndarray
    forced: np.ndarray
    #: The disk ids of the group's greedy rows, concatenated.
    alloc_disks: np.ndarray
    #: Per candidate, as Python lists: fragment count, bounds of its disk
    #: ids in ``alloc_disks`` (``offsets[row]:offsets[row + 1]``, empty for
    #: a round-robin row), prefetch entry, allocation scheme.
    fragments_total: List[int]
    offsets: List[int]
    prefetch: List[list]
    schemes: List[str]
    #: Distinct ``(dimension, level)`` pairs, shared by every decoded record.
    attr_table: List[Tuple[str, str]]
    attr_counts: np.ndarray
    attr_codes: np.ndarray
    #: Per candidate, the bounds of its codes in ``attr_codes``.
    attr_offsets: List[int]

    def record(self, row: int) -> "CandidateColumns":
        """Decode one candidate, copying its slices out of the group's arrays.

        A view would pin the group's whole stacked cube (or concatenated
        disk-id vector) alive for as long as the candidate survives in the
        in-memory cache.  The load's group checks let infinities (and NaN
        metrics) through; the candidate's own metrics are checked here, so
        no load scans every stored cube.  Raises :class:`CorruptCandidate`
        when one is not finite.
        """
        from repro.costmodel import EvaluationColumns
        from repro.engine.result import CandidateColumns

        metrics = self.metrics[row]
        if not np.isfinite(metrics).all():
            raise CorruptCandidate(f"stored candidate {row} holds a non-finite value")

        table = self.attr_table
        codes = self.attr_codes[
            self.attr_offsets[row] : self.attr_offsets[row + 1]
        ].tolist()
        attributes: List[Tuple[Tuple[str, str], ...]] = []
        position = 0
        for count in self.attr_counts[row].tolist():
            attributes.append(
                tuple([table[code] for code in codes[position : position + count]])
            )
            position += count
        return CandidateColumns(
            columns=EvaluationColumns(
                query_names=self.query_names,
                weights=self.weights,
                fragments_total=self.fragments_total[row],
                metrics=metrics.copy(),
                disks_used=self.disks[row].copy(),
                sequential=self.sequential[row].copy(),
                forced=self.forced[row].copy(),
                attributes_used=tuple(attributes),
            ),
            prefetch=tuple(self.prefetch[row]),
            allocation_scheme=self.schemes[row],
            allocation_disks=(
                None
                if self.schemes[row] == "round_robin"
                else self.alloc_disks[self.offsets[row] : self.offsets[row + 1]].copy()
            ),
        )


def _read_group(
    read: Callable[[str], np.ndarray], prefix: str
) -> Tuple[_CandidateGroup, list, List[int]]:
    """Read and check one candidate group: ``(group, salted keys, ages)``.

    The whole group is checked at once, mostly with array operations, so
    every row of a group that loads decodes into a well-formed record.  What
    only a probing context can reject — a fragment count that is not its
    rebuilt layout's, a disk id at or above its disk count — is left to the
    probe (:meth:`~repro.engine.cache.EvaluationCache.get_candidate`).
    Raises on the first failed check.
    """
    from repro.costmodel.model import NUM_METRIC_FIELDS
    from repro.storage import PrefetchPolicy

    keys = _read_json(read(prefix + "keys"))
    meta = _read_json(read(prefix + "meta"))
    table = _read_json(read(prefix + "attr_table"))
    metrics = read(prefix + "metrics")
    disks = read(prefix + "disks")
    sequential = read(prefix + "sequential")
    forced = read(prefix + "forced")
    alloc_disks = read(prefix + "alloc_disks")
    attr_counts = read(prefix + "attr_counts")
    attr_codes = read(prefix + "attr_codes")
    last_access = read(prefix + "last_access")
    query_names = meta["query_names"]
    weights = meta["weights"]
    fragments_total = np.asarray(meta["fragments_total"])
    prefetch = meta["prefetch"]
    schemes = meta["allocation_schemes"]
    _require(isinstance(keys, list) and isinstance(table, list))
    _require(isinstance(query_names, list) and isinstance(weights, list))
    rows, classes = len(keys), len(query_names)

    # Shapes match the key and class counts.
    _require(all(isinstance(name, str) for name in query_names))
    _require(len(weights) == classes)
    _require(all(isinstance(weight, float) for weight in weights))
    _require(metrics.dtype == np.float64)
    _require(metrics.shape == (rows, classes, NUM_METRIC_FIELDS))
    _require(disks.dtype.kind == "i" and disks.shape == (rows, classes))
    _require(sequential.dtype == np.bool_ and sequential.shape == (rows, classes))
    _require(forced.dtype == np.bool_ and forced.shape == (rows, classes))
    _require(last_access.dtype == np.int64 and last_access.shape == (rows,))
    _require(np.all(last_access >= 0))
    # Fragment counts are non-negative integers.
    _require(fragments_total.dtype.kind == "i" and fragments_total.shape == (rows,))
    _require(np.all(fragments_total >= 0))
    # Attribute counts sum to the number of codes, and every code is inside
    # the table of [dimension, level] pairs.
    _require(attr_counts.dtype == np.int32 and attr_counts.shape == (rows, classes))
    _require(attr_codes.dtype == np.int32 and attr_codes.ndim == 1)
    _require(np.all(attr_counts >= 0) and attr_counts.sum() == attr_codes.size)
    _require(np.all(attr_codes >= 0) and np.all(attr_codes < len(table)))
    _require(
        all(
            isinstance(pair, list)
            and len(pair) == 2
            and all(isinstance(part, str) for part in pair)
            for pair in table
        )
    )
    # Prefetch entries have four fields: two positive granules, two known
    # policies; the allocation schemes are known.
    policies = {policy.value for policy in PrefetchPolicy}
    _require(len(prefetch) == rows and len(schemes) == rows)
    _require(
        all(
            isinstance(entry, list)
            and len(entry) == 4
            and all(type(pages) is int and pages > 0 for pages in entry[:2])
            and entry[2] in policies
            and entry[3] in policies
            for entry in prefetch
        )
    )
    _require(all(scheme in _ALLOCATION_SCHEMES for scheme in schemes))
    # The rows that are not round-robin fill ``alloc_disks`` exactly, in row
    # order, each with a span as long as its fragment count; disk ids are
    # non-negative (bounded above by the probing context's disk count,
    # checked at the probe).
    stored = np.array([scheme != "round_robin" for scheme in schemes], dtype=bool)
    offsets = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(np.where(stored, fragments_total, 0), out=offsets[1:])
    _require(alloc_disks.dtype.kind == "i" and alloc_disks.shape == (offsets[-1],))
    _require(np.all(alloc_disks >= 0))

    attr_offsets = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(attr_counts.sum(axis=1), out=attr_offsets[1:])
    group = _CandidateGroup(
        query_names=tuple(query_names),
        weights=tuple(weights),
        metrics=metrics,
        disks=disks,
        sequential=sequential,
        forced=forced,
        alloc_disks=alloc_disks,
        fragments_total=fragments_total.tolist(),
        offsets=offsets.tolist(),
        prefetch=prefetch,
        schemes=schemes,
        attr_table=[(dimension, level) for dimension, level in table],
        attr_counts=attr_counts,
        attr_codes=attr_codes,
        attr_offsets=attr_offsets.tolist(),
    )
    return group, keys, last_access.tolist()


class StoredCandidate:
    """Deferred handle of one stored candidate: its group and row.

    Loading a store makes one handle per stored candidate and decodes none.
    The first :meth:`decode` copies the candidate's slices out of its group
    into a :class:`~repro.engine.result.CandidateColumns` record, sharing
    the attribute pairs of the group's table, and drops the handle's
    reference to the group.
    """

    __slots__ = ("_state", "_row")

    def __init__(self, group: _CandidateGroup, row: int) -> None:
        self._state: Union[_CandidateGroup, "CandidateColumns"] = group
        self._row = row

    @property
    def decoded(self) -> bool:
        """Whether this candidate has been decoded (its group released)."""
        return not isinstance(self._state, _CandidateGroup)

    def decode(self) -> "CandidateColumns":
        """This candidate's columnar record (decoded on the first call).

        Raises :class:`CorruptCandidate` when the candidate's stored metrics
        are not finite.
        """
        state = self._state
        if isinstance(state, _CandidateGroup):
            state = self._state = state.record(self._row)
        return state


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

    #: Whole store files skipped because their version salt did not match.
    salt_mismatches: int = 0
    #: Individual groups or entries skipped (a group or report entry failing
    #: its checks or its checksum, a malformed or foreign-salted key, an
    #: unreadable ``reports`` member) while the rest of the file loaded fine.
    corrupt_entries: int = 0
    #: Whole store files abandoned by the catch-all fallback (not a zip,
    #: truncated, or a damaged salt, group count or generation member).
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
        Directory holding the store file.
    max_bytes:
        Byte budget of the store file (``None`` = unbounded): after every
        save the file must not exceed it, least-recently-used entries being
        evicted first.
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
        """Path of format 6's report and age file (unlinked by every save)."""
        return os.path.join(self.cache_dir, ENTRIES_FILENAME)

    @property
    def batches_path(self) -> str:
        """Path of format 3's structure-batch file (unlinked by every save)."""
        return os.path.join(self.cache_dir, BATCHES_FILENAME)

    @property
    def candidates_path(self) -> str:
        """Path of the store file (candidate groups, reports, ages)."""
        return os.path.join(self.cache_dir, CANDIDATES_FILENAME)

    # -- load -------------------------------------------------------------------

    def load(self) -> Tuple[Dict[Tuple[str, ...], Any], Dict[Tuple[str, ...], Any]]:
        """Read the store: ``(candidates, exclusion reports)``.

        Candidate entries are undecoded :class:`StoredCandidate` handles.
        Returns empty dicts for anything missing, corrupted or
        version-mismatched.
        """
        candidates, reports, _, _ = self._read()
        return candidates, reports

    def _read(self):
        """Read the store file: ``(candidates, reports, ages, generation)``.

        ``ages`` maps every loaded key to its last-access generation.  Serves
        :meth:`load` and the merge of :meth:`save`.  A missing file reads as
        empty; a damaged group or report entry is skipped and the rest
        loads, and a file that cannot be read at all reads as empty, each
        counted in :attr:`load_stats`.
        """
        candidates: Dict[Tuple[str, ...], StoredCandidate] = {}
        reports: Dict[Tuple[str, ...], Any] = {}
        ages: Dict[Tuple[str, ...], int] = {}
        if not os.path.exists(self.candidates_path):
            return candidates, reports, ages, 0
        try:
            with zipfile.ZipFile(self.candidates_path) as archive:

                def read(name: str) -> np.ndarray:
                    return _read_member(archive, name)

                if str(read("__salt__")[()]) != self.salt:
                    self.load_stats.salt_mismatches += 1
                    return {}, {}, {}, 0
                generation = int(read("__generation__")[()])
                for g in range(int(read("__groups__")[()])):
                    # Per-group skip: one bad group forfeits its candidates
                    # only, not the whole warm start.
                    try:
                        group, keys, last_access = _read_group(read, f"c{g}/")
                    except Exception:
                        self.load_stats.corrupt_entries += 1
                        continue
                    for row, parts in enumerate(keys):
                        key = _key_from_parts(self.salt, parts)
                        if key is None:
                            self.load_stats.corrupt_entries += 1
                            continue
                        candidates[key] = StoredCandidate(group, row)
                        ages[key] = last_access[row]
                try:
                    entries = _read_json(read("reports"))
                    _require(isinstance(entries, list))
                except Exception:
                    self.load_stats.corrupt_entries += 1
                    entries = []
                for entry in entries:
                    # Per-entry skip, like a group's.
                    if not (isinstance(entry, list) and len(entry) == 3):
                        self.load_stats.corrupt_entries += 1
                        continue
                    parts, payload, last = entry
                    key = _key_from_parts(self.salt, parts)
                    if key is None or type(last) is not int or last < 0:
                        self.load_stats.corrupt_entries += 1
                        continue
                    reports[key] = payload
                    ages[key] = last
        except Exception:
            # Not a zip, truncated, or a damaged file-wide member.
            self.load_stats.fallback_loads += 1
            return {}, {}, {}, 0
        return candidates, reports, ages, generation

    # -- save -------------------------------------------------------------------

    def save(
        self,
        candidates: Mapping[Tuple[str, ...], Any],
        reports: Optional[Mapping[Tuple[str, ...], Any]] = None,
        touched: Optional[set] = None,
    ) -> Optional[int]:
        """Merge the given cache content into the store (GC'd to the budget).

        The directory's current entries are unioned with the provided ones
        (provided entries win on key collisions; the keys are content
        signatures, so a collision carries the identical value), the union is
        garbage-collected down to ``max_bytes`` when a budget is set, and the
        store file is written whole.  Format 3's structure file and format
        6's report file are unlinked.

        ``touched`` names the cache keys the writing process actually used
        (hit or inserted) this run: their last-access generation is
        refreshed, everything else keeps its age.  ``None`` refreshes every
        provided entry.

        A stored candidate (provided undecoded or read back from the
        directory) whose decode raises :class:`CorruptCandidate` is left out
        of the merge, so it leaves the store, and counts once in
        :attr:`load_stats` ``.corrupt_entries``.

        Returns the number of entries the store holds after the save, or
        ``None`` when the store could not be written (best-effort: the
        evaluation already succeeded, only the warm start of the *next*
        process is forfeited).
        """
        from repro.engine.result import CandidateColumns

        reports = {} if reports is None else reports
        try:
            os.makedirs(self.cache_dir, exist_ok=True)
            for legacy in (self.batches_path, self.entries_path):
                if os.path.exists(legacy):
                    os.unlink(legacy)
            corrupt: Set[Tuple[str, ...]] = set()

            def decoded(items) -> Dict[Tuple[str, ...], "CandidateColumns"]:
                records = {}
                for key, value in items:
                    try:
                        records[key] = (
                            value.decode()
                            if isinstance(value, StoredCandidate)
                            else CandidateColumns.from_candidate(value)
                        )
                    except CorruptCandidate:
                        corrupt.add(key)
                return records

            records = decoded(candidates.items())
            disk_handles, disk_reports, ages, generation = self._read()
            disk_candidates = decoded(
                (key, handle)
                for key, handle in disk_handles.items()
                if key not in records and key not in corrupt
            )
            self.load_stats.corrupt_entries += len(corrupt)
            merged: Dict[str, Dict[Tuple[str, ...], Any]] = {
                "report": {**disk_reports, **reports},
                "candidate": {**disk_candidates, **records},
            }
            provided = {"report": set(reports), "candidate": set(records)}
            generation += 1
            payloads = {
                key: json.dumps(value) for key, value in merged["report"].items()
            }
            new_access: Dict[Tuple[str, ...], Tuple[str, int, int]] = {}
            for kind, entries in merged.items():
                for key in entries:
                    refreshed = (
                        key in provided[kind] if touched is None else key in touched
                    )
                    new_access[key] = (
                        kind,
                        self._entry_bytes(kind, key, merged, payloads),
                        generation if refreshed else ages.get(key, generation),
                    )
            self._collect_and_write(merged, new_access, payloads, generation)
        except Exception:
            return None
        return sum(len(entries) for entries in merged.values())

    @staticmethod
    def _entry_bytes(kind, key, merged, payloads) -> int:
        """Estimated on-disk footprint of one entry (payload + fixed overhead)."""
        if kind == "report":
            return len(payloads[key]) + _ENTRY_OVERHEAD_BYTES
        value = merged[kind][key]
        columns = value.columns
        total = (
            columns.metrics.nbytes
            + columns.disks_used.nbytes
            + columns.sequential.nbytes
            + columns.forced.nbytes
        )
        if value.allocation_disks is not None:
            total += value.allocation_disks.nbytes
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
            payloads.pop(key, None)

    def _collect_and_write(self, merged, new_access, payloads, generation) -> None:
        """GC the merged union to the byte budget, then write the file.

        Without a budget this is one plain write.  With one, the estimated
        total is trimmed before writing, the written file is *measured*, and
        eviction repeats oldest-first until it actually fits — estimates
        only steer, the budget is enforced on the real file size.  A budget
        no store can fit (smaller than the fixed file overheads) removes the
        file entirely.
        """
        evicted = self._select_evictions(new_access)
        self._drop(merged, new_access, payloads, evicted)
        for _ in range(_MAX_GC_ROUNDS):
            self._write(merged["candidate"], payloads, new_access, generation)
            measured = os.path.getsize(self.candidates_path)
            if self.max_bytes is None or measured <= self.max_bytes:
                return
            if not new_access:
                break
            over = measured - self.max_bytes
            # The per-entry sizes steering the eviction are payload
            # *estimates*; on disk every entry also pays format overhead
            # (zip and npy headers, key text) the estimate cannot see.
            # Translate the measured excess into estimate units before
            # selecting: a store whose file runs 2-3x the estimate would
            # otherwise free 2-3x too many entries — down to an empty store —
            # in one round.  Undershooting is safe; the next round measures
            # again.
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
        # Still over budget with nothing (left) to evict — or the rounds ran
        # out: the budget wins over keeping a store at all.
        self._drop(merged, new_access, payloads, set(new_access))
        try:
            os.unlink(self.candidates_path)
        except OSError:
            pass

    def _write(self, candidates, payloads, new_access, generation) -> None:
        """Write the whole store file through an atomic temp-then-rename."""
        # Group the candidates by class shape: every group stacks into one
        # metric cube plus the concatenated disk ids of its greedy rows.
        # Weight floats round-trip exactly through JSON (repr-based shortest
        # encoding); every metric float stays binary in the npz.
        groups: Dict[Tuple, list] = {}
        for key, record in candidates.items():
            shape = (record.columns.query_names, record.columns.weights)
            groups.setdefault(shape, []).append((key, record))

        # The report payloads are already JSON text (their size estimates
        # measured it), so the member is joined from them, not re-encoded.
        reports = ",".join(
            f"[{json.dumps([self.salt, *key])},{text},{new_access[key][2]}]"
            for key, text in payloads.items()
        )
        arrays: Dict[str, np.ndarray] = {
            "__salt__": np.array(self.salt),
            "__groups__": np.array(len(groups)),
            "__generation__": np.array(generation, dtype=np.int64),
            "reports": np.frombuffer(f"[{reports}]".encode("utf-8"), dtype=np.uint8),
        }
        for g, ((query_names, weights), members) in enumerate(groups.items()):
            # Bitmap attributes as integer columns: per candidate and class
            # the number of (dimension, level) pairs, and every pair as its
            # code in the group's table of distinct pairs.
            table: Dict[Tuple[str, str], int] = {}
            counts: List[int] = []
            codes: List[int] = []
            for _, record in members:
                for class_attributes in record.columns.attributes_used:
                    counts.append(len(class_attributes))
                    for pair in class_attributes:
                        codes.append(table.setdefault(tuple(pair), len(table)))
            meta = {
                "query_names": list(query_names),
                "weights": list(weights),
                "fragments_total": [
                    record.columns.fragments_total for _, record in members
                ],
                "prefetch": [list(record.prefetch) for _, record in members],
                "allocation_schemes": [
                    record.allocation_scheme for _, record in members
                ],
            }
            arrays[f"c{g}/keys"] = _json_member(
                [[self.salt, *key] for key, _ in members]
            )
            arrays[f"c{g}/meta"] = _json_member(meta)
            arrays[f"c{g}/attr_table"] = _json_member([list(pair) for pair in table])
            arrays[f"c{g}/attr_counts"] = np.array(counts, dtype=np.int32).reshape(
                len(members), len(query_names)
            )
            arrays[f"c{g}/attr_codes"] = np.array(codes, dtype=np.int32)
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
            greedy = [
                record.allocation_disks
                for _, record in members
                if record.allocation_disks is not None
            ]
            arrays[f"c{g}/alloc_disks"] = (
                np.concatenate(greedy) if greedy else np.empty(0, dtype=np.int64)
            )
            arrays[f"c{g}/last_access"] = np.array(
                [new_access[key][2] for key, _ in members], dtype=np.int64
            )

        fd, tmp_path = tempfile.mkstemp(
            dir=self.cache_dir, prefix=".store-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                np.savez(handle, **arrays)
            os.replace(tmp_path, self.candidates_path)
        finally:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
