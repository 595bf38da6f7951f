"""The seeded workloads: inputs, the op loop, and the oracle check.

Every workload follows one protocol: ``setup()`` builds its inputs and warm
state (the runner repeats it and keeps the last), ``run(seconds, tracer,
probes)`` issues ops for a window and returns their :class:`Op` records, and
``verify(ops)`` marks every answer that differs from the scalar reference
oracle (``EngineOptions(vectorize=False, cache=False)``) as failed.  The
oracle runs after the timed window, once per distinct answer.

Why these workloads:

* ``sweep-uniform`` -- one-shot cold recommend on uniform data: structures,
  kernels, enumeration and thresholds do the work; allocation stays on
  round-robin (the no-change control for allocation work).
* ``sweep-skewed`` -- the same op on Zipf-skewed data, where most candidates
  take the greedy LPT placement and allocation dominates.
* ``whatif-session`` -- one long-lived session walking disk, architecture
  and mix edits; mixes fresh edits with cache-hit revisits and overflows the
  bounded cache (eviction).

``sweep-skewed`` and ``whatif-session`` run by name but are not among the
workloads ``BENCHMARK.json`` gates on: on a shared 2-CPU host the quartile
spread of their timings over ten runs exceeded the 0.25 bound in two of
the sets measured, where the other two workloads stayed within it.
* ``serve-restart`` -- an in-process HTTP server with more warehouses than
  live-session slots, so the tail requests rebuild sessions from the shared
  persistent store while the hot warehouse is served warm; the only
  workload where the store and the service layers work (the no-change
  control for kernel work).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import shutil
import time
import urllib.error
import urllib.request
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro import (
    AdvisorConfig,
    AdvisorSession,
    CacheStore,
    EngineOptions,
    EvaluationCache,
    SystemParameters,
    apb1_query_mix,
    apb1_schema,
    synthetic_schema,
)
from repro.api import CompareRequest, EvaluateSpecRequest, RecommendRequest, TuneRequest
from repro.service import AdvisorServer, RequestExecutor, SessionRegistry
from repro.workload.generator import random_query_mix

from probes import OP

#: The FULL synthetic warehouse: 7 dimensions x 3 levels, 263 survivors.
FULL_SCHEMA = dict(
    num_dimensions=7, levels_per_dimension=3, bottom_cardinality=400, fact_rows=30_000_000
)
FULL_CLASSES = 40
FULL_DISKS = 64
SKEW = {"dim0": 1.0, "dim1": 0.5}
SCALAR_ORACLE = EngineOptions(vectorize=False, cache=False)
#: Child processes computing the what-if oracle answers after the window.
ORACLE_WORKERS = 2


def full_inputs(seed: int, skew: Optional[Dict[str, float]] = None):
    """(schema, workload, system, config) of the FULL warehouse; ``seed``
    draws the 40-class query mix."""
    schema = synthetic_schema(**FULL_SCHEMA)
    workload = random_query_mix(schema, num_classes=FULL_CLASSES, seed=seed)
    if skew:
        schema = schema.with_skew(skew)
    config = AdvisorConfig(max_fragments=30_000, max_fragmentation_dimensions=3)
    return schema, workload, SystemParameters(num_disks=FULL_DISKS), config


def answer_digest(recommendation) -> str:
    """Exact digest of a recommendation's ranking, costs and disk placement.

    ``recommendation_fingerprint`` covers more (every per-class profile) but
    costs about three sweeps, so the window records this digest for every
    answer and the full fingerprint of one answer per run.
    """
    digest = hashlib.sha1()
    for ranked in recommendation.ranked:
        digest.update(f"{ranked.candidate.label}|{ranked.final_rank}|{ranked.io_rank};".encode())
    for candidate in recommendation.evaluated:
        allocation = candidate.allocation
        digest.update(
            f"{candidate.label}|{candidate.io_cost_ms!r}|{candidate.response_time_ms!r}|"
            f"{allocation.scheme};".encode()
        )
        digest.update(allocation.disk_of_fragment.tobytes())
        digest.update(allocation.fragment_pages.tobytes())
    return digest.hexdigest()


class Sample:
    """The first answer of a run, kept whole for its full fingerprint."""

    def __init__(self) -> None:
        self.op: Optional["Op"] = None
        self.result = None

    def keep(self, op: "Op", result) -> None:
        if self.op is None:
            self.op, self.result = op, result

    def check(self, oracle_fingerprints: Dict[Any, str]) -> None:
        if self.op is not None and self.result.fingerprint != oracle_fingerprints[self.op.key]:
            self.op.failed = True


@dataclass
class Op:
    """One timed operation and its answer."""

    kind: str
    seconds: float
    #: Counted in op_p50_ms / ops_per_s (False: a side probe such as the
    #: sweeps' warm re-ask).
    main: bool = True
    #: "activate" when the op had to build its evaluation state, "warm" when
    #: live state answered it.
    state: str = "activate"
    #: Key of the expected answer in the oracle, and the answer given.
    key: Any = None
    answer: Any = None
    error: Optional[str] = None
    failed: bool = False


def _clock_op(tracer, op_id):
    """Open the root span of one benchmark op (``None`` when untraced)."""
    if tracer is None:
        return None
    tracer.current_op = op_id
    return tracer.open(OP, op=op_id)


def _close_op(tracer, span) -> None:
    if span is not None:
        tracer.close(span)
        tracer.current_op = None


class Workload:
    """Defaults of the workload protocol (see the module docstring)."""

    def store_bytes(self) -> int:
        return 0

    def evictions(self) -> int:
        return 0

    def close(self) -> None:
        pass


class SweepWorkload(Workload):
    """Each op: a fresh ``AdvisorSession(...).recommend()`` (cold, serial).

    After each untraced op the same question is re-asked ``REASKS`` times,
    each by a new session sharing the op's cache: the warm answer an
    interactive user gets, kept out of the op's own time.  A re-ask costs a
    few percent of a cold op, so several per op give the warm median enough
    samples even on the skewed warehouse.
    """

    REASKS = 4

    def __init__(self, seed: int, skew: Optional[Dict[str, float]]):
        self.seed = seed
        self.skew = skew
        self.inputs = None
        self._op_ids = itertools.count()
        self.sample = Sample()
        self.last_result = None
        self.reask_hits = None

    def setup(self) -> None:
        self.inputs = full_inputs(self.seed, self.skew)
        AdvisorSession(*self.inputs).recommend()

    def run(self, seconds: float, tracer=None, probes=None) -> List[Op]:
        ops: List[Op] = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            span = _clock_op(tracer, next(self._op_ids))
            start = time.perf_counter()
            try:
                session = AdvisorSession(*self.inputs)
                result = session.recommend()
            except Exception as error:  # an op failure is counted, not fatal
                ops.append(Op("sweep", time.perf_counter() - start, error=repr(error)))
                continue
            finally:
                _close_op(tracer, span)
            elapsed = time.perf_counter() - start
            op = Op("sweep", elapsed, key="sweep", answer=answer_digest(result.recommendation))
            ops.append(op)
            self.sample.keep(op, result)
            self.last_result = result
            if tracer is None:
                ops += self._reask(session.cache)
        return ops

    def _reask(self, cache) -> List[Op]:
        ops: List[Op] = []
        stats = cache.stats
        before = (stats.candidate_hits, stats.candidate_misses)
        for _ in range(self.REASKS):
            start = time.perf_counter()
            try:
                warm = AdvisorSession(*self.inputs, cache=cache).recommend()
            except Exception as error:
                ops.append(Op("reask", 0.0, main=False, state="warm", error=repr(error)))
                continue
            elapsed = time.perf_counter() - start
            ops.append(
                Op("reask", elapsed, main=False, state="warm", key="sweep",
                   answer=answer_digest(warm.recommendation))
            )
        self.reask_hits = (stats.candidate_hits - before[0], stats.candidate_misses - before[1])
        return ops

    def verify(self, ops: List[Op]) -> None:
        oracle = AdvisorSession(*self.inputs, options=SCALAR_ORACLE).recommend()
        _mark(ops, {"sweep": answer_digest(oracle.recommendation)})
        self.sample.check({"sweep": oracle.fingerprint})

    def properties(self, ops: List[Op]) -> Dict[str, Any]:
        props: Dict[str, Any] = {}
        if self.last_result is not None:
            evaluated = self.last_result.recommendation.evaluated
            greedy = sum(1 for c in evaluated if c.allocation.scheme != "round_robin")
            props["candidates"] = len(evaluated)
            props["allocation.greedy_share"] = greedy / len(evaluated)
        if self.reask_hits is not None:
            props["reask.candidate_hit_ratio"] = _hit_ratio(*self.reask_hits)
        return props


class WhatIfWorkload(Workload):
    """One long-lived session; each op is a ``with_delta`` edit + recommend.

    The walk is one edit to the next state of a seeded pass over the pool,
    then two revisits of recently edited states (cache hits).  The 18-state
    pool times 263 candidates overflows the session's bounded cache, so a
    state met again a pass later is evaluated afresh.  Every visited state
    costs one scalar oracle sweep after the window, so the pool is no larger.
    """

    DISKS = (32, 64, 128)
    ARCHITECTURES = ("shared_disk", "shared_everything")
    REVISITS_PER_EDIT = 2
    RECENT = 3

    def __init__(self, seed: int):
        self.seed = seed
        self.inputs = None
        self.base: Optional[AdvisorSession] = None
        self._mixes: List[Optional[Dict[str, float]]] = []
        self._walk: Optional[Iterator[Tuple[str, Tuple]]] = None
        self._op_ids = itertools.count()
        self.sample = Sample()
        self.stats_before = None

    def mixes(self, workload) -> List[Optional[Dict[str, float]]]:
        """The stock mix plus two seeded reweightings."""
        names = sorted(query.name for query in workload)
        rng = random.Random(self.seed * 7919 + 1)
        heavy, second, third = rng.sample(names, 3)
        return [None, {heavy: 10.0}, {second: 4.0, third: 0.25}]

    def walk(self) -> Iterator[Tuple[str, Tuple[int, str, int]]]:
        """The seeded, endless edit walk: ``("edit"|"revisit", state)``."""
        rng = random.Random(self.seed)
        pool = [
            (disks, architecture, mix)
            for disks in self.DISKS
            for architecture in self.ARCHITECTURES
            for mix in range(3)
        ]
        recent: List[Tuple[int, str, int]] = []
        while True:
            order = pool[:]
            rng.shuffle(order)
            for state in order:
                yield "edit", state
                recent = (recent + [state])[-self.RECENT:]
                for _ in range(self.REVISITS_PER_EDIT):
                    yield "revisit", rng.choice(recent)

    def setup(self) -> None:
        self.inputs = full_inputs(self.seed)
        self._mixes = self.mixes(self.inputs[1])
        self.base = AdvisorSession(*self.inputs)
        self.base.recommend()
        self._walk = self.walk()
        self.stats_before = dict(vars(self.base.cache.stats))

    def _edit(self, state):
        disks, architecture, mix = state
        return self.base.with_delta(
            disks=disks, architecture=architecture, mix_weights=self._mixes[mix]
        )

    def run(self, seconds: float, tracer=None, probes=None) -> List[Op]:
        ops: List[Op] = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            kind, state = next(self._walk)
            span = _clock_op(tracer, next(self._op_ids))
            start = time.perf_counter()
            try:
                result = self._edit(state).recommend()
            except Exception as error:
                ops.append(Op(kind, time.perf_counter() - start, error=repr(error)))
                continue
            finally:
                _close_op(tracer, span)
            elapsed = time.perf_counter() - start
            op = Op(kind, elapsed, state="activate" if kind == "edit" else "warm",
                    key=state, answer=answer_digest(result.recommendation))
            ops.append(op)
            self.sample.keep(op, result)
        return ops

    def verify(self, ops: List[Op]) -> None:
        states = sorted({op.key for op in ops if op.key is not None})
        sample = self.sample.op.key if self.sample.op is not None else None
        answers = _whatif_oracles(self.seed, states, sample)
        _mark(ops, {state: digest for state, (digest, _) in answers.items()})
        self.sample.check(
            {state: fingerprint for state, (_, fingerprint) in answers.items() if fingerprint}
        )

    def properties(self, ops: List[Op]) -> Dict[str, Any]:
        stats = vars(self.base.cache.stats)
        delta = {name: stats[name] - self.stats_before.get(name, 0) for name in stats}
        seen = set()
        first_visits = 0
        for op in ops:
            if op.kind == "edit" and op.key not in seen:
                first_visits += 1
            seen.add(op.key)
        return {
            "fresh_edits": sum(1 for op in ops if op.kind == "edit"),
            "first_visit_edits": first_visits,
            "revisits": sum(1 for op in ops if op.kind == "revisit"),
            "distinct_states": len(seen),
            "engine.cache.candidate_hit_ratio": _hit_ratio(
                delta["candidate_hits"], delta["candidate_misses"]
            ),
            "engine.cache.structure_hit_ratio": _hit_ratio(
                delta["structure_hits"], delta["structure_misses"]
            ),
            "cache_entries": len(self.base.cache),
        }


def _whatif_oracle(seed: int, state: Tuple[int, str, int], fingerprint: bool):
    """Scalar-oracle digest (and optionally fingerprint) of one what-if state."""
    schema, workload, system, config = full_inputs(seed)
    disks, architecture, mix = state
    weights = WhatIfWorkload(seed).mixes(workload)[mix]
    oracle = AdvisorSession(
        schema,
        workload.reweighted(weights) if weights else workload,
        system.with_disks(disks).with_architecture(architecture),
        config,
        options=SCALAR_ORACLE,
    ).recommend()
    return answer_digest(oracle.recommendation), oracle.fingerprint if fingerprint else None


def _whatif_oracles(seed: int, states, sample) -> Dict[Tuple, Tuple[str, Optional[str]]]:
    """Oracle answers of the visited what-if states (one scalar sweep each, ~30).

    The sweeps are split over worker processes, which have ended on return.
    """
    with ProcessPoolExecutor(max_workers=ORACLE_WORKERS) as pool:
        answers = pool.map(
            _whatif_oracle,
            [seed] * len(states),
            states,
            [state == sample for state in states],
        )
        return dict(zip(states, answers))


class ServeWorkload(Workload):
    """One closed-loop client against an in-process ``AdvisorServer``.

    Four warehouses share one store directory but only two sessions may be
    live.  The client's plan repeats a cycle: ten requests on the *hot*,
    most popular warehouse, whose session stays live, then one on the next
    *tail* warehouse of the other three.  Each tail request finds its
    warehouse cold, evicts the previous tail session and rebuilds its own
    from the store.  The store is populated in set-up with every answer the
    plan asks for, so no request computes from scratch.

    The seed draws the request plan (the specs asked for and the order of
    the tail warehouses), not the warehouses: an activation loads the whole
    store, and the store built from a seeded query mix changed its load
    time by up to 8% between seeds, a spread that says nothing about the
    program.

    A second client overlapping the first made every warm request share the
    interpreter with an activation: on a 2-CPU host whose neighbours load it
    unevenly, warm medians then doubled from one run to the next, so the
    requests are sent one at a time.
    """

    WORKERS = 2
    MAX_SESSIONS = 2
    HOT = "full-u64"
    TAIL = ("full-s64", "full-u32", "apb1")
    #: Fixed kind cycle on the hot warehouse (2 recommend : 6 evaluate_spec :
    #: 1 tune : 1 compare); the seed draws the specs.  A served recommend
    #: takes about twice as long as the other kinds, so it stays well under
    #: half of the requests and the median does not sit between the two.
    HOT_KINDS = (
        "recommend", "evaluate_spec", "tune", "evaluate_spec", "evaluate_spec",
        "recommend", "evaluate_spec", "compare", "evaluate_spec", "evaluate_spec",
    )
    #: A tail request checks one candidate, so it is a store rebuild plus
    #: one cached candidate.
    TAIL_KINDS = ("evaluate_spec",)
    TOP = 5
    TUNE_DISKS = (16, 32, 64)
    REQUEST_TIMEOUT_S = 120.0
    #: Seed of the FULL warehouses' query mix, the same for every run.
    WAREHOUSE_SEED = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.server: Optional[AdvisorServer] = None
        self.store_dir: Optional[str] = None
        self.inputs: Dict[str, Tuple] = {}
        self.top_specs: Dict[str, List] = {}
        self._plan: Optional[Iterator[Tuple[str, str, Tuple[int, ...]]]] = None
        self._op_ids = itertools.count()
        #: First response body per request key (the rest are digests only).
        self._bodies: Dict[Tuple, bytes] = {}
        self._setups = 0

    def warehouse_inputs(self) -> Dict[str, Tuple]:
        schema, workload, system, config = full_inputs(self.WAREHOUSE_SEED)
        return {
            "full-u64": (schema, workload, system, config),
            "full-s64": full_inputs(self.WAREHOUSE_SEED, SKEW),
            "full-u32": (schema, workload, system.with_disks(32), config),
            "apb1": (
                apb1_schema(scale=0.1),
                apb1_query_mix(),
                SystemParameters(num_disks=64),
                AdvisorConfig(),
            ),
        }

    def plan(self) -> Iterator[Tuple[str, str, Tuple[int, ...]]]:
        """The seeded, endless request plan: ``(warehouse, kind, picks)``."""
        hot = self._requests(random.Random(self.seed), itertools.repeat(self.HOT), self.HOT_KINDS)
        rng = random.Random(self.seed + 1)
        tail = self._requests(rng, itertools.cycle(rng.sample(self.TAIL, len(self.TAIL))), self.TAIL_KINDS)
        while True:
            yield from itertools.islice(hot, len(self.HOT_KINDS))
            yield next(tail)

    def _requests(self, rng, warehouses, kinds) -> Iterator[Tuple[str, str, Tuple[int, ...]]]:
        for warehouse, kind in zip(warehouses, itertools.cycle(kinds)):
            if kind == "evaluate_spec":
                picks: Tuple[int, ...] = (rng.randrange(self.TOP),)
            elif kind == "compare":
                picks = tuple(sorted(rng.sample(range(self.TOP), 2)))
            else:
                picks = ()
            yield warehouse, kind, picks

    def request(self, warehouse: str, kind: str, picks: Tuple[int, ...]):
        specs = self.top_specs[warehouse]
        if kind == "recommend":
            return RecommendRequest()
        if kind == "evaluate_spec":
            return EvaluateSpecRequest(specs[picks[0]])
        if kind == "compare":
            return CompareRequest(tuple(specs[i] for i in picks))
        return TuneRequest("disks", settings=list(self.TUNE_DISKS))

    def setup(self) -> None:
        self.close()
        self._setups += 1
        self.store_dir = os.path.join(self.workdir, f"store-{self._setups}")
        self.inputs = self.warehouse_inputs()
        # Populate the shared store with every answer the plan can ask for:
        # the hot warehouse's whole sweep and tune study, and the tail
        # warehouses' top candidates (their sweeps use a private cache).
        shared = EvaluationCache()
        for name, (schema, workload, system, config) in self.inputs.items():
            hot = name == self.HOT
            ranked = AdvisorSession(
                schema, workload, system, config, cache=shared if hot else None
            ).recommend().recommendation.ranked
            self.top_specs[name] = [r.candidate.spec for r in ranked[: self.TOP]]
            session = AdvisorSession(schema, workload, system, config, cache=shared)
            if hot:
                session.tune("disks", settings=self.TUNE_DISKS)
            for spec in self.top_specs[name]:
                session.evaluate(EvaluateSpecRequest(spec))
        shared.save(CacheStore(self.store_dir))
        self.server = AdvisorServer(
            registry=SessionRegistry(max_sessions=self.MAX_SESSIONS),
            executor=RequestExecutor(workers=self.WORKERS),
        )
        options = EngineOptions(cache_dir=self.store_dir)
        for name, (schema, workload, system, config) in self.inputs.items():
            self.server.registry.register(
                name, schema, workload, system, config=config, options=options
            )
        self.server.start_in_background()
        # Warm the hot session, as a long-running server would have it.
        self._post(self.HOT, RecommendRequest().to_dict())
        self._plan = self.plan()

    def _post(self, warehouse: str, payload: Dict[str, Any]) -> Tuple[int, bytes]:
        request = urllib.request.Request(
            f"{self.server.url}/warehouses/{warehouse}/submit",
            data=json.dumps(payload).encode(),
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=self.REQUEST_TIMEOUT_S) as response:
                return response.status, response.read()
        except urllib.error.HTTPError as error:
            return error.code, b""

    def _live(self, warehouse: str) -> bool:
        for row in self.server.registry.describe()["warehouses"]:
            if row["name"] == warehouse:
                return row["live"]
        return False

    def run(self, seconds: float, tracer=None, probes=None) -> List[Op]:
        ops: List[Op] = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            warehouse, kind, picks = next(self._plan)
            op_id = next(self._op_ids)
            payload = self.request(warehouse, kind, picks).to_dict()
            live = self._live(warehouse)
            span = _clock_op(tracer, op_id)
            if probes is not None:
                probes.expect(f"{warehouse}:{kind}", op_id)
            start = time.perf_counter()
            try:
                status, body = self._post(warehouse, payload)
                error = None if status == 200 else f"HTTP {status}"
            except Exception as failure:  # counted as a failed op
                status, body, error = 0, b"", repr(failure)
            finally:
                _close_op(tracer, span)
            elapsed = time.perf_counter() - start
            key = (warehouse, kind, picks)
            # Only the raw body is hashed here; one body per key is parsed later.
            if error is None:
                self._bodies.setdefault(key, body)
            ops.append(
                Op(kind, elapsed, state="warm" if live else "activate", key=key,
                   answer=hashlib.sha1(body).hexdigest(), error=error)
            )
        return ops

    def verify(self, ops: List[Op]) -> None:
        sessions: Dict[str, AdvisorSession] = {}
        best = {}
        expected = {}
        for key in sorted({op.key for op in ops if op.key is not None}):
            warehouse, kind, picks = key
            if warehouse not in sessions:
                sessions[warehouse] = AdvisorSession(
                    *self.inputs[warehouse], options=SCALAR_ORACLE
                )
                recommended = sessions[warehouse].recommend()
                best[warehouse] = (recommended, recommended.best.spec)
            oracle = sessions[warehouse]
            if kind == "recommend":
                answer = best[warehouse][0]
            elif kind == "tune":
                answer = oracle.tune(
                    "disks", spec=best[warehouse][1], settings=self.TUNE_DISKS
                )
            else:
                answer = oracle.submit(self.request(warehouse, kind, picks))
            # Every answer for a key must be byte-identical to the first one,
            # whose result must equal the oracle's.
            body = self._bodies.get(key)
            if body is not None and json.loads(body)["result"] == json.loads(
                json.dumps(answer.to_dict())
            ):
                expected[key] = hashlib.sha1(body).hexdigest()
        _mark(ops, expected)

    def evictions(self) -> int:
        return self.server.registry.evictions if self.server is not None else 0

    def store_bytes(self) -> int:
        if not self.store_dir or not os.path.isdir(self.store_dir):
            return 0
        return sum(
            os.path.getsize(os.path.join(self.store_dir, name))
            for name in os.listdir(self.store_dir)
        )

    def properties(self, ops: List[Op]) -> Dict[str, Any]:
        main = [op for op in ops if op.main]
        activations = sum(1 for op in main if op.state == "activate")
        kinds: Dict[str, int] = {}
        for op in main:
            kinds[op.kind] = kinds.get(op.kind, 0) + 1
        return {
            "requests": len(main),
            "activation_share": activations / len(main) if main else 0.0,
            "evictions": self.evictions(),
            "requests_by_kind": kinds,
            "store_mb": self.store_bytes() / 1e6,
        }

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
        if self.store_dir and os.path.isdir(self.store_dir):
            shutil.rmtree(self.store_dir, ignore_errors=True)


def _hit_ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def _mark(ops: List[Op], expected: Dict[Any, Any]) -> None:
    """Fail every op whose answer differs from the oracle's (or that erred)."""
    for op in ops:
        if op.error is not None or op.key not in expected or op.answer != expected[op.key]:
            op.failed = True


def make(name: str, seed: int, workdir: str):
    if name == "sweep-uniform":
        return SweepWorkload(seed, None)
    if name == "sweep-skewed":
        return SweepWorkload(seed, SKEW)
    if name == "whatif-session":
        return WhatIfWorkload(seed)
    if name == "serve-restart":
        return ServeWorkload(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("sweep-uniform", "sweep-skewed", "whatif-session", "serve-restart")
