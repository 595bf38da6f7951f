"""Outside-in span tracing: wrappers rebound around calls into each layer.

The traced run replaces selected names in the calling modules (or class
attributes) with wrappers that record one span per call: name, start, end,
parent span and op id.  Spans stay in memory and are written out when the
run ends.  :meth:`Patches.remove` puts every original object back, so an
untraced run in the same process calls the program exactly as shipped.

Self time is a span's duration minus the part of it its child spans cover;
children of one thread never overlap in practice, but the union is taken so
that overlapping children (spans from several threads tagged with one op)
are not subtracted twice.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Interval = Tuple[float, float]


class Span:
    """One recorded call: ``[start, end)`` on the ``perf_counter`` clock."""

    __slots__ = ("name", "start", "end", "parent", "op", "counters")

    def __init__(self, name: str, start: float, parent: Optional["Span"], op: Any):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.counters: Optional[Dict[str, float]] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def add(self, counters: Dict[str, float]) -> None:
        if self.counters is None:
            self.counters = {}
        for key, value in counters.items():
            self.counters[key] = self.counters.get(key, 0) + value


class Tracer:
    """In-memory span recorder with a per-thread span stack and op id."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def current_op(self) -> Any:
        return getattr(self._local, "op", None)

    @current_op.setter
    def current_op(self, op: Any) -> None:
        self._local.op = op

    def open(self, name: str, op: Any = None) -> Span:
        stack = self._stack()
        span = Span(
            name,
            time.perf_counter(),
            stack[-1] if stack else None,
            self.current_op if op is None else op,
        )
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        else:  # pragma: no cover - a wrapper closed out of order
            stack.remove(span)

    def wrap(
        self,
        name: str,
        fn: Callable,
        note: Optional[Callable[..., Optional[Dict[str, float]]]] = None,
    ) -> Callable:
        """``fn`` recording one span per call; ``note(result, *args, **kw)``
        returns counters to attach to the span."""
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if note is not None:
                counters = note(result, *args, **kwargs)
                if counters:
                    span.add(counters)
            return result

        return traced

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        """A generator function whose every ``next()`` is one span (items=1).

        A generator does its work while it is iterated, not when it is
        called, so timing the call alone would record nothing.
        """
        tracer = self

        def traced(*args, **kwargs):
            iterator = iter(fn(*args, **kwargs))
            while True:
                span = tracer.open(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    tracer.close(span)
                    return
                except BaseException:
                    tracer.close(span)
                    raise
                tracer.close(span)
                span.add({"items": 1})
                yield item

        return traced

    def dump(self, path: str) -> int:
        """Write every span as one JSON line (parents as span indices)."""
        index = {id(span): number for number, span in enumerate(self.spans)}
        with open(path, "w") as handle:
            for number, span in enumerate(self.spans):
                record = {
                    "id": number,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": None if span.parent is None else index[id(span.parent)],
                    "op": span.op,
                }
                if span.counters:
                    record["counters"] = span.counters
                handle.write(json.dumps(record) + "\n")
        return len(self.spans)


class Patches:
    """Rebound names (module globals or class attributes) and their originals."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Rebind ``owner.attr`` to ``make(original function)``.

        A class-level ``classmethod`` is unwrapped and rewrapped, so it
        stays a classmethod.
        """
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            replacement: Any = classmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def remove(self) -> None:
        """Restore every original object, last patch first."""
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    @property
    def targets(self) -> List[Tuple[Any, str, Any]]:
        return list(self._saved)


# -- span arithmetic ------------------------------------------------------------


def union_length(intervals: Iterable[Interval], clip: Optional[Interval] = None) -> float:
    """Total length covered by ``intervals`` (optionally clipped to ``clip``)."""
    pieces = []
    for start, end in intervals:
        if clip is not None:
            start, end = max(start, clip[0]), min(end, clip[1])
        if end > start:
            pieces.append((start, end))
    pieces.sort()
    covered = 0.0
    current_start = current_end = None
    for start, end in pieces:
        if current_end is None or start > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        covered += current_end - current_start
    return covered


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """``id(span) -> self time``: duration minus its children's covered time."""
    children: Dict[int, List[Interval]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append((span.start, span.end))
    return {
        id(span): span.duration
        - union_length(children.get(id(span), ()), clip=(span.start, span.end))
        for span in spans
    }


def unattributed(roots: Sequence[Span], spans: Sequence[Span]) -> Tuple[float, float]:
    """``(uncovered seconds, total seconds)`` of the root op spans.

    A root is covered where any other span tagged with its op id runs, on
    any thread.
    """
    by_op: Dict[Any, List[Interval]] = defaultdict(list)
    root_ids = {id(root) for root in roots}
    for span in spans:
        if id(span) not in root_ids and span.op is not None:
            by_op[span.op].append((span.start, span.end))
    uncovered = total = 0.0
    for root in roots:
        covered = union_length(by_op.get(root.op, ()), clip=(root.start, root.end))
        uncovered += root.duration - covered
        total += root.duration
    return uncovered, total


class StageRow:
    """One ExecSummary-shaped row: a stage's calls, items, times, hits."""

    __slots__ = ("stage", "calls", "items", "total_s", "max_s", "self_s", "hits", "misses")

    def __init__(self, stage: str) -> None:
        self.stage = stage
        self.calls = 0
        self.items = 0.0
        self.total_s = 0.0
        self.max_s = 0.0
        self.self_s = 0.0
        self.hits = 0
        self.misses = 0


def stage_rows(spans: Sequence[Span]) -> Dict[str, StageRow]:
    """Aggregate spans by name into stage rows."""
    selfs = self_times(spans)
    rows: Dict[str, StageRow] = {}
    for span in spans:
        row = rows.get(span.name)
        if row is None:
            row = rows[span.name] = StageRow(span.name)
        row.calls += 1
        row.total_s += span.duration
        row.max_s = max(row.max_s, span.duration)
        row.self_s += selfs[id(span)]
        counters = span.counters or {}
        row.items += counters.get("items", 0)
        row.hits += int(counters.get("hits", 0))
        row.misses += int(counters.get("misses", 0))
    return rows


def format_exec_summary(rows: Sequence[StageRow], ops: int) -> str:
    """Rows in the ExecSummary column shape, one stage per line."""
    header = (
        f"{'stage':<34}{'calls':>9}{'items':>11}{'total s':>10}"
        f"{'max s':>10}{'self s':>10}{'hits/misses':>15}"
    )
    lines = [f"traced stages over {ops} op(s)", header, "-" * len(header)]
    for row in rows:
        hits = f"{row.hits}/{row.misses}" if row.hits or row.misses else "-"
        items = f"{row.items:.0f}" if row.items else "-"
        lines.append(
            f"{row.stage:<34}{row.calls:>9}{items:>11}{row.total_s:>10.4f}"
            f"{row.max_s:>10.4f}{row.self_s:>10.4f}{hits:>15}"
        )
    return "\n".join(lines)
