"""The layer probes of the traced run and the per-layer metrics they yield.

Every probe rebinds one public name at the place the layer above calls it
(``repro.api.session.evaluate_thresholds``, ``EvaluationEngine.evaluate_specs``
...), so only calls made through the advisor's own pipeline are recorded.
Cache hit ratios come from :class:`~repro.engine.CacheStats` deltas of every
cache a traced call touched, not from spans.
"""

from __future__ import annotations

import dataclasses
import os
import threading
import time
from collections import defaultdict, deque
from typing import Any, Dict, List, Sequence

from tracing import Patches, Span, StageRow, Tracer, stage_rows, unattributed

#: Span name of the benchmark's own op (the root of every traced op).
OP = "op"


def _file_signature(paths: Sequence[str]) -> Dict[str, tuple]:
    signature = {}
    for path in paths:
        try:
            stat = os.stat(path)
        except OSError:
            continue
        signature[path] = (stat.st_mtime_ns, stat.st_size)
    return signature


class LayerProbes:
    """Install the layer wrappers on a :class:`Tracer`; remove them after."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.patches = Patches()
        #: CacheStats objects seen while installed -> field snapshot at first sight.
        self._cache_stats: Dict[int, tuple] = {}
        #: CacheStats deltas of earlier installations.
        self._cache_totals: Dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        #: Request label -> benchmark ops sent by a client, not yet submitted.
        self._expected: Dict[str, deque] = {}
        #: Request label -> (op, enqueue time) of submitted, not yet run jobs.
        self._submitted: Dict[str, deque] = {}
        self._local = threading.local()
        self.rejected = 0

    # -- cache stats --------------------------------------------------------------

    def _see_cache(self, cache) -> None:
        if cache is None:
            return
        stats = cache.stats
        with self._lock:
            if id(stats) not in self._cache_stats:
                self._cache_stats[id(stats)] = (stats, dataclasses.asdict(stats))

    def _fold_cache_stats(self) -> None:
        for stats, before in self._cache_stats.values():
            for name, now in dataclasses.asdict(stats).items():
                self._cache_totals[name] += now - before[name]
        self._cache_stats.clear()

    def cache_deltas(self) -> Dict[str, int]:
        """Summed CacheStats deltas of every cache while the probes were installed."""
        totals = defaultdict(int, self._cache_totals)
        for stats, before in self._cache_stats.values():
            for name, now in dataclasses.asdict(stats).items():
                totals[name] += now - before[name]
        return totals

    # -- service op plumbing ------------------------------------------------------

    def expect(self, label: str, op: Any) -> None:
        """A client is about to send request ``label`` for benchmark op ``op``."""
        with self._lock:
            self._expected.setdefault(label, deque()).append(op)

    def _claim(self, label: str) -> Any:
        """The op of a request about to be queued, remembered for its worker.

        Called before the job is queued, since a worker may run it at once.
        """
        with self._lock:
            waiting = self._expected.get(label)
            op = waiting.popleft() if waiting else None
            self._submitted.setdefault(label, deque()).append((op, time.perf_counter()))
            return op

    def _unclaim(self, label: str) -> None:
        """Forget the newest submission of ``label`` (the queue refused it)."""
        with self._lock:
            self._submitted[label].pop()

    def _started(self, label: str):
        """``(op, enqueue time)`` of the oldest queued job of ``label``."""
        with self._lock:
            waiting = self._submitted.get(label)
            return waiting.popleft() if waiting else (None, None)

    # -- installation -------------------------------------------------------------

    def install(self) -> "LayerProbes":
        import repro.api.session as session_module
        import repro.engine.executor as executor_module
        from repro.api import AdvisorSession
        from repro.engine import CacheStore, EvaluationEngine
        from repro.service import RequestExecutor, RequestJob, WarehouseEntry
        from repro.workload import ClassMatrix

        tracer, patches = self.tracer, self.patches
        probes = self

        def simple(name, note=None):
            return lambda fn: tracer.wrap(name, fn, note)

        # api.session: the recommend pipeline and its compiled inputs.
        patches.replace(
            session_module,
            "enumerate_point_fragmentations",
            lambda fn: tracer.wrap_generator("fragmentation.enumerate", fn),
        )
        patches.replace(
            session_module,
            "evaluate_thresholds",
            simple(
                "core.thresholds",
                lambda violations, *a, **k: {"items": 1, "hits": 0 if violations else 1},
            ),
        )
        patches.replace(session_module, "rank_candidates_columnar", simple("core.ranking"))

        def recommend(fn):
            def traced(session, *args, **kwargs):
                probes._see_cache(session.cache)
                before = getattr(probes._local, "specs", 0)
                span = tracer.open("api.session.recommend")
                try:
                    return fn(session, *args, **kwargs)
                finally:
                    tracer.close(span)
                    memo = getattr(probes._local, "specs", 0) == before
                    span.add({
                        "hits": int(memo),
                        "misses": int(not memo),
                        "entries": len(session.cache) if session.cache is not None else 0,
                    })

            return traced

        def generate_specs(fn):
            # A recommend() that never reaches generate_specs was memoized.
            traced = tracer.wrap("api.session.generate_specs", fn)

            def counted(*args, **kwargs):
                probes._local.specs = getattr(probes._local, "specs", 0) + 1
                return traced(*args, **kwargs)

            return counted

        patches.replace(AdvisorSession, "recommend", recommend)
        patches.replace(AdvisorSession, "generate_specs", generate_specs)
        patches.replace(
            executor_module, "design_bitmap_scheme", simple("api.session.design_bitmaps")
        )
        patches.replace(ClassMatrix, "compile", simple("api.session.compile_matrix"))

        # engine.executor and the kernels it calls.
        patches.replace(
            EvaluationEngine,
            "evaluate_specs",
            simple("engine.executor.evaluate_specs", lambda r, *a, **k: {"items": len(r)}),
        )
        patches.replace(
            executor_module,
            "evaluate_specs_in_context",
            simple("engine.executor.chunk", lambda r, *a, **k: {"items": len(r)}),
        )
        patches.replace(executor_module, "build_layout", simple("fragmentation.build_layout"))
        for name in (
            "compute_access_structure_batch_candidates",
            "compute_access_structure_batch",
        ):
            patches.replace(
                executor_module,
                name,
                simple("costmodel.structures", lambda r, *a, **k: {"items": _layouts(a)}),
            )
        for name in (
            "resolve_prefetch_settings_batch_candidates",
            "resolve_prefetch_setting_batch",
        ):
            patches.replace(executor_module, name, simple("costmodel.prefetch"))
        for name in ("evaluate_workload_batch_candidates", "evaluate_workload_batch"):
            patches.replace(executor_module, name, simple("costmodel.cost"))
        patches.replace(
            executor_module,
            "choose_allocations_batch",
            simple("allocation", lambda r, *a, **k: _allocation_counters(r)),
        )
        patches.replace(
            executor_module,
            "choose_allocation",
            simple("allocation", lambda r, *a, **k: _allocation_counters([r])),
        )

        # engine.store: whole-store reads and merge-writes.
        def store_load(fn):
            def traced(store, *args, **kwargs):
                paths = (store.entries_path, store.batches_path, store.candidates_path)
                size = sum(s for _, s in _file_signature(paths).values())
                fallbacks = store.load_stats.fallback_loads
                span = tracer.open("engine.store.load")
                try:
                    return fn(store, *args, **kwargs)
                finally:
                    tracer.close(span)
                    span.add(
                        {
                            "items": 1,
                            "bytes_read": size,
                            "fallback_loads": store.load_stats.fallback_loads - fallbacks,
                        }
                    )

            return traced

        def store_save(fn):
            def traced(store, *args, **kwargs):
                paths = (store.entries_path, store.batches_path, store.candidates_path)
                before = _file_signature(paths)
                span = tracer.open("engine.store.save")
                try:
                    return fn(store, *args, **kwargs)
                finally:
                    tracer.close(span)
                    after = _file_signature(paths)
                    written = sum(
                        size for path, (mtime, size) in after.items()
                        if before.get(path) != (mtime, size)
                    )
                    span.add({"items": 1, "bytes_written": written})

            return traced

        patches.replace(CacheStore, "load", store_load)
        patches.replace(CacheStore, "save", store_save)

        # service: queue hand-off, execution on a worker, session activation.
        def submit(fn):
            def traced(executor, task, label="", *args, **kwargs):
                op = probes._claim(label)
                span = tracer.open("service.submit", op=op)
                try:
                    return fn(executor, task, label, *args, **kwargs)
                except Exception:
                    probes._unclaim(label)
                    probes.rejected += 1
                    raise
                finally:
                    tracer.close(span)

            return traced

        def run(fn):
            def traced(job, *args, **kwargs):
                op, queued = probes._started(job.label)
                previous = tracer.current_op
                tracer.current_op = op
                span = tracer.open("service.execute")
                # The wait between hand-off and pickup, as a span of its own.
                waited = Span(
                    "service.queue_wait", span.start if queued is None else queued, None, op
                )
                waited.end = span.start
                tracer.spans.append(waited)
                try:
                    return fn(job, *args, **kwargs)
                finally:
                    tracer.close(span)
                    tracer.current_op = previous

            return traced

        def ensure_session(fn):
            def traced(entry, *args, **kwargs):
                activating = entry.session is None
                span = tracer.open("service.ensure_session")
                try:
                    session = fn(entry, *args, **kwargs)
                finally:
                    tracer.close(span)
                    span.add({"hits": int(not activating), "misses": int(activating)})
                probes._see_cache(session.cache)
                return session

            return traced

        patches.replace(RequestExecutor, "submit", submit)
        patches.replace(RequestJob, "run", run)
        patches.replace(WarehouseEntry, "ensure_session", ensure_session)
        return self

    def remove(self) -> None:
        """Restore the program; cache activity after this is not counted."""
        self.patches.remove()
        self._fold_cache_stats()


def _layouts(args) -> int:
    first = args[0] if args else None
    return len(first) if isinstance(first, (list, tuple)) else 1


def _allocation_counters(allocations) -> Dict[str, float]:
    greedy = [a for a in allocations if a.scheme != "round_robin"]
    return {
        "items": len(allocations),
        "greedy": len(greedy),
        "greedy_fragments": sum(len(a.fragment_pages) for a in greedy),
    }


# -- per-layer metrics ----------------------------------------------------------------

#: Span names whose self time belongs to each reported layer.
LAYER_SPANS = {
    "fragmentation.enumerate": ("fragmentation.enumerate",),
    "core.thresholds": ("core.thresholds",),
    "fragmentation.build_layout": ("fragmentation.build_layout",),
    "costmodel.structures": ("costmodel.structures",),
    "costmodel.prefetch": ("costmodel.prefetch",),
    "costmodel.cost": ("costmodel.cost",),
    "allocation": ("allocation",),
    "core.ranking": ("core.ranking",),
    "engine.executor": ("engine.executor.evaluate_specs", "engine.executor.chunk"),
    "api.session": (
        "api.session.recommend",
        "api.session.generate_specs",
        "api.session.design_bitmaps",
        "api.session.compile_matrix",
    ),
    "engine.store": ("engine.store.load", "engine.store.save"),
    "service": (
        "service.submit", "service.queue_wait", "service.execute", "service.ensure_session"
    ),
}


def unit_of(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if name.endswith("_pct"):
        return "%"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    if name.endswith("_s"):
        return "s/op"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("bytes_read", "bytes_written")):
        return "B/op"
    if name.endswith(("entries", "fallback_loads")):
        return "count"
    return "count/op"


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(
    probes: LayerProbes,
    spans: Sequence[Span],
    traced_p50_ms: float,
    untraced_p50_ms: float,
    store_bytes: int = 0,
    evictions: int = 0,
) -> Dict[str, float]:
    """Every per-layer metric of the traced window, normalised per op."""
    roots = [span for span in spans if span.name == OP]
    ops = max(len(roots), 1)
    rows = stage_rows(spans)
    empty = StageRow("")

    def row(name: str) -> StageRow:
        return rows.get(name, empty)

    def counter(name: str, key: str) -> float:
        return sum((s.counters or {}).get(key, 0) for s in spans if s.name == name)

    def self_s(layer: str) -> float:
        return sum(row(name).self_s for name in LAYER_SPANS[layer]) / ops

    cache = probes.cache_deltas()
    allocations = row("allocation")
    thresholds = row("core.thresholds")
    chunks = row("engine.executor.chunk")
    execute = row("service.execute")
    uncovered, total = unattributed(roots, spans)
    queue_wait = row("service.queue_wait").total_s
    request_s = sum(span.duration for span in roots) if execute.calls else 0.0
    metrics = {
        "fragmentation.enumerate.self_s": self_s("fragmentation.enumerate"),
        "fragmentation.enumerate.items": row("fragmentation.enumerate").items / ops,
        "core.thresholds.self_s": self_s("core.thresholds"),
        "core.thresholds.survivor_ratio": _ratio(thresholds.hits, thresholds.calls),
        "fragmentation.build_layout.self_s": self_s("fragmentation.build_layout"),
        "fragmentation.build_layout.calls": row("fragmentation.build_layout").calls / ops,
        "costmodel.structures.self_s": self_s("costmodel.structures"),
        "costmodel.structures.items": row("costmodel.structures").items / ops,
        "costmodel.prefetch.self_s": self_s("costmodel.prefetch"),
        "costmodel.cost.self_s": self_s("costmodel.cost"),
        "allocation.self_s": self_s("allocation"),
        "allocation.greedy_share": _ratio(counter("allocation", "greedy"), allocations.items),
        "allocation.greedy_fragments": counter("allocation", "greedy_fragments") / ops,
        "core.ranking.self_s": self_s("core.ranking"),
        "engine.executor.self_s": self_s("engine.executor"),
        "engine.executor.chunks": chunks.calls / ops,
        "engine.executor.candidates_per_chunk": _ratio(chunks.items, chunks.calls),
        "engine.cache.candidate_hit_ratio": _ratio(
            cache["candidate_hits"], cache["candidate_hits"] + cache["candidate_misses"]
        ),
        "engine.cache.structure_hit_ratio": _ratio(
            cache["structure_hits"], cache["structure_hits"] + cache["structure_misses"]
        ),
        "engine.cache.entries": _ratio(
            counter("api.session.recommend", "entries"), row("api.session.recommend").calls
        ),
        "engine.store.load_s": row("engine.store.load").total_s / ops,
        "engine.store.save_s": row("engine.store.save").total_s / ops,
        "engine.store.bytes_read": counter("engine.store.load", "bytes_read") / ops,
        "engine.store.bytes_written": counter("engine.store.save", "bytes_written") / ops,
        "engine.store.fallback_loads": counter("engine.store.load", "fallback_loads"),
        "engine.store.store_mb": store_bytes / 1e6,
        "api.session.compile_s": (
            row("api.session.design_bitmaps").total_s
            + row("api.session.compile_matrix").total_s
        ) / ops,
        "api.session.memo_hits": row("api.session.recommend").hits / ops,
        "service.queue_wait_s": queue_wait / ops,
        "service.execute_s": execute.total_s / ops,
        "service.transport_s": max(request_s - queue_wait - execute.total_s, 0.0) / ops,
        "service.activations": row("service.ensure_session").misses / ops,
        "service.evictions": evictions / ops,
        "service.rejected": probes.rejected / ops,
        "trace.overhead_pct": (
            100.0 * (traced_p50_ms / untraced_p50_ms - 1.0) if untraced_p50_ms else 0.0
        ),
        "trace.unattributed_share": _ratio(uncovered, total),
    }
    return metrics


def summary_rows(probes: LayerProbes, spans: Sequence[Span]) -> List[StageRow]:
    """Stage rows in pipeline order, plus a synthesized cache row."""
    rows = stage_rows(spans)
    cache = probes.cache_deltas()
    cache_row = StageRow("engine.cache (candidates)")
    cache_row.calls = cache["candidate_hits"] + cache["candidate_misses"]
    cache_row.hits, cache_row.misses = cache["candidate_hits"], cache["candidate_misses"]
    structure_row = StageRow("engine.cache (structures)")
    structure_row.calls = cache["structure_hits"] + cache["structure_misses"]
    structure_row.hits, structure_row.misses = cache["structure_hits"], cache["structure_misses"]
    order = [OP] + [name for names in LAYER_SPANS.values() for name in names]
    ordered = [rows[name] for name in order if name in rows]
    ordered += [rows[name] for name in sorted(rows) if name not in order]
    return ordered + [cache_row, structure_row]
