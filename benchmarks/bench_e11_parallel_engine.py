"""E11 — The candidate-evaluation engine: batched, cached, persistent.

The advisor's hot path is the candidate sweep: every surviving fragmentation
is evaluated against every query class of the mix.  This experiment measures
the evaluation-engine pipeline in several parts:

**Part 1 — engine modes** on a large synthetic sweep (hundreds of candidates,
thousands of (candidate × query class) work units):

* **serial/uncached/scalar** — the seed-equivalent baseline: one inline loop,
  per-class scalar estimation, every access structure recomputed for both the
  prefetch run-length pass and the evaluation pass;
* **cached** — the engine's default memoized, batched pipeline;
* **warm** — a repeated sweep against the already-populated cache, the shape
  every what-if tuning iteration takes;
* **memoized re-ask** — a fresh session asking the same question, answered
  from the cache's answer memo without a single candidate probe.

**Part 3 — cross-process warm start** from the persistent on-disk cache
(``repro.engine.store``): three *separate* advisor processes share one cache
directory — a cold process that spills its sweep, a warm process, and a
process started against a deliberately corrupted store.  Reported per
process: wall time, entries loaded and the disk-hit rate; the warm process
must answer >=90% of its probes from the disk store and every process must
produce the bit-identical recommendation fingerprint.

**Part 4 — the session delta chain**: one ``AdvisorSession`` absorbs a
5-edit what-if chain against 5 cold advisors; a reverted edit is answered
from the cache's answer memo (see the test docstring).

**Part 5 — the columnar candidate store**: on the stock 8-class APB-1 mix a
fresh advisor warm-starts from the store a cold advisor spilled; the scalar
and batched paths are asserted fingerprint-identical on the same sweep;
measurements are appended to ``BENCH_e11.json``.

**Part 7 — the HTTP service under concurrent load**: an
:class:`repro.service.AdvisorServer` holding two warm sessions serves a batch
of concurrent what-if requests (recommend + tune, 8 in quick mode, 16 in
full) issued from client threads over real sockets.  Reported: request
throughput and p50/p99 latency, plus one SSE-streamed request per warehouse
whose progress frames must terminate with ``completed == total``.  Every
HTTP result is asserted fingerprint-identical to an in-process
``AdvisorSession`` over the same inputs; measurements are appended to
``BENCH_e11.json``.

**Part 8 — the served recommend**: the fingerprint emitter against the
reference text (``json.dumps`` of ``recommendation_state``) on a cold
answer, a cold served ``recommend`` (register, then the first request),
and memoized served ``recommend`` requests against warm served
``evaluate_spec`` requests of the same run.  The digests must agree and
every memoized body must be byte-identical to the first; full mode asserts
the fingerprint at most 2x the cold sweep it certifies and a memoized
``recommend`` at most 1.5x a warm ``evaluate_spec``.  Measurements are
appended to ``BENCH_e11.json``.

**Part 6 — the columnar two-phase ranking**: ``rank_candidates_columnar``
vs the scalar ``rank_candidates`` tail on a ~1000-candidate sweep.  The
scalar ranking re-derives the workload-weighted totals through per-candidate
property probes inside its sort keys; the columnar ranking accumulates one
total-cost vector off the metric cubes and runs both phases as stable
``np.lexsort`` passes.  Asserted bit-identical and >= 2x in full mode;
measurements are appended to ``BENCH_e11.json``.

Assertions: all modes return bit-identical recommendations
(:func:`repro.engine.recommendation_fingerprint`), and the warm cache-aware
sweep is at least 2x faster than the serial baseline.  The cross-process warm
start must answer the sweep from disk (>=90% disk-hit rate) and, in full
mode, beat its own cold process on the in-process sweep time (asserted at
1.2x; measured ~1.5x — the cold sweep is already vectorized and memoized, so
the residual warm win is bounded by spec enumeration and store unpickling).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

from repro import (
    AdvisorConfig,
    AdvisorSession,
    EngineOptions,
    SystemParameters,
    apb1_query_mix,
    apb1_schema,
    synthetic_schema,
)
from repro.core import Recommendation, rank_candidates_columnar
from repro.engine import recommendation_fingerprint
from repro.workload.generator import random_query_mix

from conftest import print_table

#: The full sweep: 7 dimensions x 3 levels enumerate >1000 point
#: fragmentations of which well over 200 survive the thresholds; 40 query
#: classes give every candidate a substantial per-class cost sweep.
FULL = dict(dimensions=7, bottom=400, classes=40, max_fragments=30_000, min_candidates=200)
#: Smoke mode for CI: same pipeline, small sweep, no speedup thresholds.
QUICK = dict(dimensions=5, bottom=200, classes=8, max_fragments=20_000, min_candidates=20)

#: APB-1 configuration of the columnar-store experiment.
APB_SCALE = 0.2
APB_DISKS = 64


def _inputs(params):
    schema = synthetic_schema(
        num_dimensions=params["dimensions"],
        levels_per_dimension=3,
        bottom_cardinality=params["bottom"],
        fact_rows=30_000_000,
    )
    workload = random_query_mix(schema, num_classes=params["classes"], seed=11)
    system = SystemParameters(num_disks=64)
    config = AdvisorConfig(
        max_fragments=params["max_fragments"], max_fragmentation_dimensions=3
    )
    return schema, workload, system, config


def _timed_recommend(advisor):
    start = time.perf_counter()
    recommendation = advisor.recommend().recommendation
    return recommendation, time.perf_counter() - start


def _timed_sweep(advisor):
    """``recommend()``'s pipeline past the cache's answer memo, timed: the
    specs, the engine's sweep driver over the shared cache, the ranking."""
    start = time.perf_counter()
    specs, report = advisor.generate_specs()
    candidates = advisor.engine.evaluate_specs(specs)
    ranked = rank_candidates_columnar(
        candidates,
        top_fraction=advisor.config.top_fraction,
        top_candidates=advisor.config.top_candidates,
    )
    recommendation = Recommendation(
        ranked=tuple(ranked),
        evaluated=tuple(candidates),
        exclusion_report=report,
        config=advisor.config,
        schema=advisor.schema,
        workload=advisor.workload,
        system=advisor.system,
    )
    return recommendation, time.perf_counter() - start


def test_e11_engine_speedup_and_parity(benchmark, quick):
    params = QUICK if quick else FULL
    schema, workload, system, config = _inputs(params)

    # Mode 1: seed-equivalent serial baseline (no cache, scalar inline loop).
    serial_advisor = AdvisorSession(
        schema,
        workload,
        system,
        config,
        options=EngineOptions(cache=False, vectorize=False),
    )
    specs, report = serial_advisor.generate_specs()
    serial_rec, serial_s = _timed_recommend(serial_advisor)

    # Mode 2: the default cache-aware batched engine (timed via
    # pytest-benchmark as the headline).
    cached_advisor = AdvisorSession(schema, workload, system, config)
    start = time.perf_counter()
    cached_rec = benchmark.pedantic(
        cached_advisor.recommend, iterations=1, rounds=1
    ).recommendation
    cached_s = time.perf_counter() - start
    cold_stats = cached_advisor.cache.stats

    # Mode 3: warm cache (the tuning-iteration shape).  A *fresh* advisor
    # sharing the cache sweeps it: its recommend() would be answered O(1)
    # from the cache's answer memo without probing a candidate at all.
    cached_advisor.cache.reset_stats()
    warm_rec, warm_s = _timed_sweep(
        AdvisorSession(schema, workload, system, config, cache=cached_advisor.cache)
    )
    warm_stats = cached_advisor.cache.stats

    # Mode 4: that memoized re-ask.
    cached_advisor.cache.reset_stats()
    memo_rec, memo_s = _timed_recommend(
        AdvisorSession(schema, workload, system, config, cache=cached_advisor.cache)
    )
    memo_stats = cached_advisor.cache.stats

    print()
    print(
        f"E11: {len(specs)} candidates x {len(workload)} query classes = "
        f"{len(specs) * len(workload)} evaluations"
    )
    print(
        f"E11: candidate space {report.considered} considered, "
        f"{report.surviving_count} evaluated"
    )
    print_table(
        f"E11: engine modes on the {len(specs)}-candidate sweep",
        ["mode", "time [s]", "speedup vs serial", "notes"],
        [
            ["serial (uncached, scalar)", f"{serial_s:.3f}", "1.00x", "seed-equivalent loop"],
            ["engine (cached, batched)", f"{cached_s:.3f}", f"{serial_s / cached_s:.2f}x",
             cold_stats.describe()],
            ["engine warm cache", f"{warm_s:.3f}", f"{serial_s / warm_s:.2f}x",
             warm_stats.describe()],
            ["memoized re-ask", f"{memo_s:.5f}", f"{serial_s / memo_s:.0f}x",
             memo_stats.describe()],
        ],
    )

    # -- parity: every mode returns the bit-identical recommendation ------------
    fingerprints = {
        recommendation_fingerprint(rec)
        for rec in (serial_rec, cached_rec, warm_rec)
    }
    assert len(fingerprints) == 1, "engine modes disagree on the recommendation"

    # -- sweep size: the experiment must exercise a real candidate space --------
    assert len(specs) >= params["min_candidates"]
    assert len(specs) * len(workload) >= params["min_candidates"] * params["classes"]

    # -- cache effectiveness ----------------------------------------------------
    # Cold, vectorized: one structure *batch* per candidate covers all classes
    # (the run-length and evaluation passes share it within the evaluation).
    assert cold_stats.structure_misses == len(specs)
    # Warm: the whole sweep is answered from candidate-level entries.
    assert warm_stats.candidate_hits == len(specs)
    assert warm_stats.hit_rate >= 0.99
    # Memoized: the cold answer itself, without a probe.
    assert memo_rec is cached_rec
    assert memo_stats.lookups == 0

    if quick:
        return

    # -- speedups ---------------------------------------------------------------
    # The memoized warm sweep must beat the seed-equivalent serial loop >= 2x
    # (in practice it is an order of magnitude).
    assert serial_s / warm_s >= 2.0, (
        f"warm cache sweep only {serial_s / warm_s:.2f}x over serial "
        f"({warm_s:.3f}s vs {serial_s:.3f}s)"
    )


# ---------------------------------------------------------------------------
# Part 3: cross-process warm start from the persistent on-disk cache
# ---------------------------------------------------------------------------

#: Runs one advisor in a *separate process* against a shared cache directory
#: and prints its fingerprint, in-process sweep time and disk-hit stats.
_CROSS_PROCESS_SNIPPET = """\
import json, sys, time

from repro import AdvisorConfig, AdvisorSession, SystemParameters, synthetic_schema
from repro.engine import recommendation_fingerprint
from repro.workload.generator import random_query_mix

params = json.loads(sys.argv[1])
schema = synthetic_schema(
    num_dimensions=params["dimensions"],
    levels_per_dimension=3,
    bottom_cardinality=params["bottom"],
    fact_rows=30_000_000,
)
workload = random_query_mix(schema, num_classes=params["classes"], seed=11)
system = SystemParameters(num_disks=64)
config = AdvisorConfig(
    max_fragments=params["max_fragments"], max_fragmentation_dimensions=3
)
from repro import EngineOptions
advisor = AdvisorSession(
    schema, workload, system, config,
    options=EngineOptions(cache_dir=params["cache_dir"]),
)
start = time.perf_counter()
recommendation = advisor.recommend().recommendation
elapsed = time.perf_counter() - start
advisor.persist_cache()
stats = advisor.cache.stats
print(json.dumps({
    "fingerprint": recommendation_fingerprint(recommendation),
    "elapsed": elapsed,
    "loaded": advisor.cache.loaded_from_disk,
    "disk_hits": stats.disk_hits,
    "lookups": stats.lookups,
    "disk_hit_rate": stats.disk_hit_rate,
}))
"""


def _run_cross_process(params, cache_dir):
    """One advisor process sharing ``cache_dir``; returns its report dict."""
    env = dict(os.environ)
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    payload = dict(params)
    payload["cache_dir"] = str(cache_dir)
    result = subprocess.run(
        [sys.executable, "-c", _CROSS_PROCESS_SNIPPET, json.dumps(payload)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


def test_e11_cross_process_persistent_cache(quick, tmp_path):
    """Separate processes share the sweep through the on-disk cache store."""
    params = QUICK if quick else FULL
    cache_dir = tmp_path / "warlock-cache"

    cold = _run_cross_process(params, cache_dir)
    warm = _run_cross_process(params, cache_dir)

    # Corrupt the one store file in place: the next process must fall back
    # to a cold evaluation with the identical result (and rewrite the store).
    (cache_dir / "candidates.npz").write_bytes(b"\x00garbage")
    corrupted = _run_cross_process(params, cache_dir)

    rows = []
    for label, report in (
        ("cold process", cold),
        ("warm process", warm),
        ("corrupted-store process", corrupted),
    ):
        rows.append(
            [
                label,
                f"{report['elapsed']:.3f}",
                f"{report['loaded']}",
                f"{report['disk_hits']}/{report['lookups']}",
                f"{report['disk_hit_rate']:.1%}",
            ]
        )
    print()
    print_table(
        "E11: cross-process warm start from the persistent cache",
        ["process", "sweep [s]", "entries loaded", "disk hits", "disk-hit rate"],
        rows,
    )

    # -- parity: the store can speed runs up, never change them ---------------
    fingerprints = {
        report["fingerprint"] for report in (cold, warm, corrupted)
    }
    assert len(fingerprints) == 1, "cross-process runs disagree on the recommendation"

    # -- the warm processes answer the sweep from the disk store --------------
    assert cold["disk_hits"] == 0
    assert warm["loaded"] > 0
    assert warm["disk_hit_rate"] >= 0.9
    # The corrupted store is never trusted: nothing loads, everything recomputes.
    assert corrupted["loaded"] == 0 and corrupted["disk_hits"] == 0

    if quick:
        return

    # Warm-starting across processes must beat the cold sweep.  The margin is
    # moderate by construction — the cold sweep is already vectorized and
    # memoized, and the warm run still pays spec enumeration plus the store
    # load — measured ~1.5x on the reference container, asserted at 1.2x to
    # stay robust across CI hardware.
    assert cold["elapsed"] / warm["elapsed"] >= 1.2, (
        f"cross-process warm start only {cold['elapsed'] / warm['elapsed']:.2f}x "
        f"over cold ({warm['elapsed']:.3f}s vs {cold['elapsed']:.3f}s)"
    )


def test_e11_tuning_reuse_via_shared_cache(quick):
    """What-if studies sharing the advisor's cache reuse the sweep's work."""
    from repro.tuning import disk_count_study, workload_weight_study

    params = QUICK if quick else FULL
    schema, workload, system, config = _inputs(params)
    advisor = AdvisorSession(schema, workload, system, config)
    recommendation = advisor.recommend().recommendation
    spec = recommendation.best.spec

    advisor.cache.reset_stats()
    start = time.perf_counter()
    disk_count_study(
        schema, workload, system, spec, disk_counts=(16, 32, 64), config=config,
        cache=advisor.cache,
    )
    first_class = next(iter(workload)).name
    workload_weight_study(
        schema, workload, system, spec,
        reweightings={"drill-heavy": {first_class: 10.0}},
        config=config,
        cache=advisor.cache,
    )
    elapsed = time.perf_counter() - start
    stats = advisor.cache.stats
    print()
    print(f"E11: tuning studies over the recommended spec took {elapsed:.3f}s")
    print(f"E11: {stats.describe()}")
    # The disk-count study varies only the system: every structure batch of
    # the studied spec is reused from the recommend() sweep.
    assert stats.structure_hits > 0
    assert stats.hit_rate > 0.5


# ---------------------------------------------------------------------------
# Part 4: the session delta chain (one session, 5 what-if edits)
# ---------------------------------------------------------------------------

def test_e11_session_delta_chain(quick):
    """One AdvisorSession absorbs a 5-edit what-if chain vs 5 cold advisors.

    The paper's interactive session shape: an administrator varies disks,
    architecture and mix weights against one warehouse — including toggling
    an edit back to compare.  Each edit derives a session with
    ``with_delta`` (sharing the evaluation cache); every recommendation is
    asserted bit-identical to a fresh advisor built from the edited inputs,
    per-edit cache hit rates are reported, and in full mode the warm chain
    must beat the 5 cold advisors by at least 2x wall-clock (structure
    entries carry system/mix edits; a reverted edit re-creates inputs the
    chain already answered, so the cache's answer memo returns that answer
    without a probe, and its row reports no lookups).
    """
    params = QUICK if quick else FULL
    schema, workload, system, config = _inputs(params)
    first_query = next(iter(workload))

    edits = [
        ("disks 64 -> 32", dict(disks=32)),
        ("architecture -> SE", dict(architecture="shared_everything")),
        ("revert system", dict(disks=64, architecture="shared_disk")),
        (f"{first_query.name} weight x10", dict(mix_weights={first_query.name: 10.0})),
        ("revert mix", dict(mix_weights={first_query.name: first_query.weight})),
    ]

    session = AdvisorSession(schema, workload, system, config)
    base, base_s = (lambda t0=time.perf_counter(): (session.recommend(), time.perf_counter() - t0))()

    rows = []
    warm_times = []
    fingerprints = []
    current = session
    for label, edit in edits:
        current = current.with_delta(**edit)
        session.cache.reset_stats()
        start = time.perf_counter()
        result = current.recommend()
        elapsed = time.perf_counter() - start
        warm_times.append(elapsed)
        fingerprints.append(result.fingerprint)
        stats = session.cache.stats
        rows.append(
            [label, f"{elapsed:.3f}", f"{stats.hit_rate:.1%}",
             f"{stats.candidate_hits}", f"{stats.structure_hits}"]
        )

    # The cold side: one fresh advisor (private cache) per edited input set.
    cold_times = []
    cold_schema, cold_workload, cold_system = schema, workload, system
    for index, (_, edit) in enumerate(edits):
        if "disks" in edit:
            cold_system = cold_system.with_disks(edit["disks"])
        if "architecture" in edit:
            cold_system = cold_system.with_architecture(edit["architecture"])
        if "mix_weights" in edit:
            cold_workload = cold_workload.reweighted(edit["mix_weights"])
        advisor = AdvisorSession(cold_schema, cold_workload, cold_system, config)
        recommendation, elapsed = _timed_recommend(advisor)
        cold_times.append(elapsed)
        # -- parity: the delta chain can never change a number --------------
        assert recommendation_fingerprint(recommendation) == fingerprints[index], (
            f"delta chain diverged from a fresh advisor on edit {index}"
        )

    warm_total, cold_total = sum(warm_times), sum(cold_times)
    print()
    print(f"E11: session base sweep {base_s:.3f}s "
          f"({len(base.recommendation.evaluated)} candidates)")
    print_table(
        "E11: what-if delta chain (one session, shared cache)",
        ["edit", "warm [s]", "hit rate", "candidate hits", "structure hits"],
        rows,
    )
    print(
        f"E11: delta chain warm {warm_total:.3f}s vs 5 cold advisors "
        f"{cold_total:.3f}s -> {cold_total / warm_total:.2f}x"
    )

    # The reverted edits are answered from the answer memo: nearly free
    # compared to their cold counterparts.
    assert warm_times[2] < cold_times[2]
    if quick:
        return
    assert cold_total / warm_total >= 2.0, (
        f"session delta chain only {cold_total / warm_total:.2f}x over cold "
        f"({warm_total:.3f}s vs {cold_total:.3f}s)"
    )


# ---------------------------------------------------------------------------
# Part 5: warm start from the columnar candidate store
# ---------------------------------------------------------------------------

#: Trajectory file: every part-5/part-6 run appends its measurements, so the
#: warm-start and ranking speedups can be tracked across commits/containers.
BENCH_TRAJECTORY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "BENCH_e11.json")


def _append_trajectory(record):
    """Append one measurement record to the BENCH_e11.json trajectory file."""
    payload = {"experiment": "e11-part5-candidate-axis", "runs": []}
    try:
        with open(BENCH_TRAJECTORY) as handle:
            existing = json.load(handle)
        if isinstance(existing.get("runs"), list):
            payload = existing
    except Exception:
        pass
    payload["runs"].append(record)
    with open(BENCH_TRAJECTORY, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def test_e11_columnar_store_warm_start(quick, tmp_path):
    """Part 5: a fresh advisor warm-starting from the columnar candidate store.

    A cold advisor spills its sweep; a fresh advisor over the same directory
    must beat the cold run (>= 1.3x full mode) with >= 90% disk hits, since
    it reads bulk candidate columns and does not re-derive the exclusion
    thresholds.  The scalar and batched paths and both store runs
    are asserted fingerprint-identical.
    """
    schema = apb1_schema(scale=0.05 if quick else APB_SCALE)
    system = SystemParameters(num_disks=APB_DISKS)
    config = AdvisorConfig(max_fragments=100_000)
    mix = apb1_query_mix()

    # -- columnar warm start: cold advisor spills, fresh advisor loads ---------
    store = tmp_path / "columnar-store"
    cold_advisor = AdvisorSession(
        schema, mix, system, config, options=EngineOptions(cache_dir=str(store))
    )
    cold_rec, cold_s = _timed_recommend(cold_advisor)
    warm_advisor = AdvisorSession(
        schema, mix, system, config, options=EngineOptions(cache_dir=str(store))
    )
    warm_rec, warm_s = _timed_recommend(warm_advisor)
    warm_ratio = cold_s / warm_s
    warm_stats = warm_advisor.cache.stats

    # -- path parity on this exact sweep ---------------------------------------
    fingerprints = {
        recommendation_fingerprint(
            AdvisorSession(
                schema, mix, system, config,
                options=EngineOptions(cache=False, vectorize=vectorize),
            ).recommend().recommendation
        )
        for vectorize in (False, True)
    }
    fingerprints.add(recommendation_fingerprint(cold_rec))
    fingerprints.add(recommendation_fingerprint(warm_rec))
    assert len(fingerprints) == 1, "scalar, batched and store runs disagree"

    print()
    print_table(
        f"E11: warm start from the columnar candidate store "
        f"({len(cold_rec.evaluated)} candidates, APB-1)",
        ["run", "time [s]", "disk hits", "ratio"],
        [
            ["cold (spills store)", f"{cold_s:.3f}", "0", "1.00x"],
            ["warm (fresh advisor)", f"{warm_s:.3f}",
             f"{warm_stats.disk_hits}/{warm_stats.lookups}",
             f"{warm_ratio:.2f}x"],
        ],
    )

    _append_trajectory(
        {
            "quick": quick,
            "candidates": len(cold_rec.evaluated),
            "cold_s": round(cold_s, 4),
            "warm_s": round(warm_s, 4),
            "warm_from_disk_ratio": round(warm_ratio, 3),
            "warm_disk_hit_rate": round(warm_stats.disk_hit_rate, 4),
        }
    )

    assert warm_stats.disk_hit_rate >= 0.9
    if quick:
        return
    # The columnar store + persisted exclusion report must push the
    # warm-from-disk ratio past the format-1 level (asserted conservatively).
    assert warm_ratio >= 1.3, (
        f"columnar warm start only {warm_ratio:.2f}x over cold "
        f"({warm_s:.3f}s vs {cold_s:.3f}s)"
    )


# ---------------------------------------------------------------------------
# Part 6: the columnar two-phase ranking
# ---------------------------------------------------------------------------

#: Size of the ranking sweep: the full sweep's evaluated candidates are tiled
#: to this count, the shape of a wide multi-warehouse what-if comparison.
RANK_SWEEP = 1000


def _fresh_candidates(evaluated, target):
    """Tile the sweep to ``target`` *distinct* candidate objects.

    Every slot gets its own candidate and evaluation wrapper (sharing the
    underlying metric cubes, so no data is copied): the totals of each
    candidate are genuinely unprobed, which is the shape of a sweep fresh
    from the batched evaluation, where the ranking is the first consumer of
    the workload-weighted totals.  Tiling the *objects* instead would let the
    scalar path answer duplicate slots from the per-evaluation total caches
    and measure a dict lookup, not the tail it actually pays.
    """
    import dataclasses

    from repro.costmodel import WorkloadEvaluation

    repeats = -(-target // len(evaluated))
    tiled = (evaluated * repeats)[:target]
    return [
        candidate
        if candidate.evaluation.columns is None
        else dataclasses.replace(
            candidate,
            evaluation=WorkloadEvaluation(
                candidate.evaluation.layout,
                candidate.evaluation.prefetch,
                columns=candidate.evaluation.columns,
            ),
        )
        for candidate in tiled
    ]


def _time_ranking(rank, evaluated, target, rounds=5):
    """Best-of-N wall time of one full two-phase ranking pass.

    The candidate list is rebuilt outside the timed window each round so the
    totals stay cold: round 1 would otherwise warm the per-evaluation caches
    and turn the later rounds of the scalar path into cache lookups.
    """
    best = None
    for _ in range(rounds):
        candidates = _fresh_candidates(evaluated, target)
        start = time.perf_counter()
        rank(candidates, top_fraction=0.25, top_candidates=10)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def test_e11_columnar_ranking(quick):
    """Part 6: the vectorized ranking vs the scalar tail of the sweep.

    After the batched evaluation lands, the recommend() tail is the two-phase
    ranking: the scalar path re-derives every candidate's workload-weighted
    I/O cost and response time through property probes inside its sort keys
    (one ``sum(w * v)`` per probe over the whole class axis), while the
    columnar path accumulates one total-cost vector straight off the metric
    cubes and sorts with two stable ``np.lexsort`` passes.  Both must return
    the identical top list; full mode asserts the columnar ranking >= 2x on
    the tiled ~1000-candidate sweep.
    """
    from repro.core import rank_candidates, rank_candidates_columnar

    params = QUICK if quick else FULL
    schema, workload, system, config = _inputs(params)
    session = AdvisorSession(schema, workload, system, config)
    evaluated = list(session.recommend().recommendation.evaluated)
    target = len(evaluated) if quick else max(RANK_SWEEP, len(evaluated))

    scalar_s = _time_ranking(rank_candidates, evaluated, target)
    columnar_s = _time_ranking(rank_candidates_columnar, evaluated, target)
    ratio = scalar_s / columnar_s

    # -- parity on one shared candidate list ------------------------------------
    candidates = _fresh_candidates(evaluated, target)
    scalar_ranked = rank_candidates(candidates, top_fraction=0.25, top_candidates=10)
    columnar_ranked = rank_candidates_columnar(
        candidates, top_fraction=0.25, top_candidates=10
    )

    print()
    print_table(
        f"E11: two-phase ranking on {len(candidates)} candidates "
        f"({params['classes']} classes)",
        ["path", "time [ms]", "speedup"],
        [
            ["scalar (property probes)", f"{scalar_s * 1000:.2f}", "1.00x"],
            ["columnar (lexsort)", f"{columnar_s * 1000:.2f}", f"{ratio:.2f}x"],
        ],
    )

    # -- parity: the columnar ranking is the scalar ranking, faster -------------
    assert len(scalar_ranked) == len(columnar_ranked)
    for left, right in zip(scalar_ranked, columnar_ranked):
        assert left.candidate is right.candidate
        assert left.io_rank == right.io_rank
        assert left.final_rank == right.final_rank

    _append_trajectory(
        {
            "part": "6-columnar-ranking",
            "quick": quick,
            "candidates": len(candidates),
            "classes": params["classes"],
            "scalar_ranking_ms": round(scalar_s * 1000, 3),
            "columnar_ranking_ms": round(columnar_s * 1000, 3),
            "ranking_speedup": round(ratio, 3),
        }
    )

    if quick:
        return
    # The scalar tail probes 2 x n weighted sums per sort; the columnar path
    # replaces them with one cube accumulation (measured well above the
    # asserted floor on the reference container).
    assert ratio >= 2.0, (
        f"columnar ranking only {ratio:.2f}x over scalar "
        f"({columnar_s * 1000:.2f}ms vs {scalar_s * 1000:.2f}ms)"
    )


# ---------------------------------------------------------------------------
# Part 7: the HTTP service under concurrent what-if load
# ---------------------------------------------------------------------------

#: Concurrent requests fired at the service (threads = requests: every client
#: has its own socket, so the bound is the service's worker pool, not the
#: client side).
SERVICE_LOAD_QUICK = 8
SERVICE_LOAD_FULL = 16


def _http_post_json(url, payload, timeout=600):
    import urllib.request

    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(), method="POST"
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read())


def _http_post_sse(url, payload, timeout=600):
    import urllib.request

    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        method="POST",
        headers={"Accept": "text/event-stream"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        raw = response.read().decode()
    frames = []
    for block in raw.split("\n\n"):
        if block.strip():
            lines = dict(line.split(": ", 1) for line in block.splitlines())
            frames.append((lines["event"], json.loads(lines["data"])))
    return frames


def _percentile(sorted_values, fraction):
    index = min(len(sorted_values) - 1, int(fraction * len(sorted_values)))
    return sorted_values[index]


def test_e11_service_concurrent_load(quick):
    """Part 7: the advisor service under concurrent what-if load.

    Two warehouses (the same inputs at 64 and 32 disks) are registered and
    warmed with one recommend each — the paper's interactive session shape,
    now multi-tenant.  A batch of concurrent clients then mixes memoized
    recommends with tune studies across both warehouses; the streamed
    variants must terminate their progress at ``completed == total`` and
    every result must be fingerprint-identical to an in-process session over
    the same inputs.
    """
    import threading

    from repro.service import AdvisorServer, RequestExecutor, SessionRegistry

    params = QUICK if quick else FULL
    load = SERVICE_LOAD_QUICK if quick else SERVICE_LOAD_FULL
    schema, workload, system, config = _inputs(params)
    systems = {"wh64": system, "wh32": system.with_disks(32)}

    server = AdvisorServer(
        registry=SessionRegistry(max_sessions=4),
        executor=RequestExecutor(workers=4, capacity=load * 2),
    )
    for name, sys_params in systems.items():
        server.registry.register(name, schema, workload, sys_params, config=config)
    server.start_in_background()
    try:
        # -- warm both sessions (one cold sweep each, timed as reference) -------
        warm_times = {}
        for name in systems:
            start = time.perf_counter()
            _http_post_json(
                f"{server.url}/warehouses/{name}/submit", {"kind": "recommend"}
            )
            warm_times[name] = time.perf_counter() - start
        assert server.registry.live_sessions == len(systems)

        # -- concurrent what-if load over the warm sessions ---------------------
        warehouses = list(systems)
        payloads = [
            {"kind": "recommend"}
            if index % 2 == 0
            else {"kind": "tune", "study": "disks", "settings": [16, 32, 64]}
            for index in range(load)
        ]
        results = [None] * load
        latencies = [None] * load

        def client(index):
            name = warehouses[index % len(warehouses)]
            start = time.perf_counter()
            body = _http_post_json(
                f"{server.url}/warehouses/{name}/submit", payloads[index]
            )
            latencies[index] = time.perf_counter() - start
            results[index] = (name, body)

        batch_start = time.perf_counter()
        threads = [
            threading.Thread(target=client, args=(index,)) for index in range(load)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=600)
        batch_s = time.perf_counter() - batch_start
        assert all(result is not None for result in results), "a client failed"

        # -- one streamed request per warehouse: progress must terminate --------
        for name in systems:
            frames = _http_post_sse(
                f"{server.url}/warehouses/{name}/submit?stream=1",
                {"kind": "tune", "study": "disks", "settings": [16, 32, 64]},
            )
            kinds = [kind for kind, _ in frames]
            assert kinds[-2:] == ["result", "done"]
            progress = [data for kind, data in frames if kind == "progress"]
            assert progress
            assert progress[-1]["completed"] == progress[-1]["total"]

        # -- parity: every HTTP result == the in-process session ----------------
        oracles = {
            name: AdvisorSession(schema, workload, sys_params, config=config)
            for name, sys_params in systems.items()
        }
        for index, (name, body) in enumerate(results):
            oracle = oracles[name]
            if payloads[index]["kind"] == "recommend":
                assert body["fingerprint"] == oracle.recommend().fingerprint, (
                    f"HTTP recommend diverged from in-process on {name}"
                )
            else:
                expected = oracle.tune("disks", settings=(16, 32, 64)).to_dict()
                assert body["result"] == json.loads(json.dumps(expected)), (
                    f"HTTP tune diverged from in-process on {name}"
                )

        sorted_latency = sorted(latencies)
        p50 = _percentile(sorted_latency, 0.50)
        p99 = _percentile(sorted_latency, 0.99)
        print()
        print_table(
            f"E11: service load — {load} concurrent what-if requests over "
            f"{len(systems)} warm sessions (4 request workers)",
            ["metric", "value"],
            [
                ["cold warm-up sweeps [s]",
                 ", ".join(f"{name} {t:.3f}" for name, t in warm_times.items())],
                ["batch wall time [s]", f"{batch_s:.3f}"],
                ["throughput [req/s]", f"{load / batch_s:.1f}"],
                ["p50 latency [s]", f"{p50:.3f}"],
                ["p99 latency [s]", f"{p99:.3f}"],
                ["served / cancelled", f"{server.served} / {server.cancelled}"],
            ],
        )

        _append_trajectory(
            {
                "part": "7-service-load",
                "quick": quick,
                "concurrent_requests": load,
                "warm_sessions": len(systems),
                "request_workers": 4,
                "batch_s": round(batch_s, 4),
                "throughput_rps": round(load / batch_s, 2),
                "p50_s": round(p50, 4),
                "p99_s": round(p99, 4),
                "cold_sweep_s": {
                    name: round(t, 4) for name, t in warm_times.items()
                },
            }
        )

        # The warm what-if requests ride the cache and its answer memo: even the
        # p99 must come in well under a cold sweep (loose bound — the point
        # is "interactive against warm sessions", not a specific speedup).
        assert p99 < max(warm_times.values()) * 2 + 5.0, (
            f"p99 latency {p99:.3f}s is not interactive against warm sessions "
            f"(cold sweeps {warm_times})"
        )
    finally:
        server.stop()


# ---------------------------------------------------------------------------
# Part 8: the served recommend (fingerprint emitter, encode once)
# ---------------------------------------------------------------------------

#: Memoized recommends and warm evaluate_specs timed per run.
SERVED_ROUNDS_QUICK = 5
SERVED_ROUNDS_FULL = 25
#: Cold answers whose sweep and fingerprint are timed (medians reported).
FINGERPRINT_ROUNDS = 3


def _http_post_raw(url, payload, timeout=600):
    import urllib.request

    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(), method="POST"
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.read()


def test_e11_served_recommend(quick):
    """Part 8: what a served recommend costs, cold and memoized.

    A served recommend proves its answer with the fingerprint, and a
    memoized one hands back an answer that was already encoded.  The
    emitter is timed against its answer's cold sweep (medians over fresh
    sessions) and against the reference text; the service then answers a
    cold recommend, and alternates memoized recommends with warm
    evaluate_specs of the best candidate.
    """
    from repro.api import EvaluateSpecRequest
    from repro.engine import recommendation_state, stable_digest
    from repro.service import AdvisorServer, RequestExecutor, SessionRegistry

    params = QUICK if quick else FULL
    rounds = SERVED_ROUNDS_QUICK if quick else SERVED_ROUNDS_FULL
    schema, workload, system, config = _inputs(params)

    # -- the emitter against the reference, on cold answers -----------------------
    sweeps, emits = [], []
    for _ in range(FINGERPRINT_ROUNDS):
        session = AdvisorSession(schema, workload, system, config)
        session.generate_specs()  # the sweep is timed, not spec generation
        recommendation, elapsed = _timed_recommend(session)
        sweeps.append(elapsed)
        start = time.perf_counter()
        emitted = recommendation_fingerprint(recommendation)
        emits.append(time.perf_counter() - start)
    sweep_s = sorted(sweeps)[len(sweeps) // 2]
    emitter_s = sorted(emits)[len(emits) // 2]
    start = time.perf_counter()
    reference = stable_digest(
        "Recommendation", json.dumps(recommendation_state(recommendation), sort_keys=True)
    )
    reference_s = time.perf_counter() - start
    assert emitted == reference

    # -- served: a cold recommend, then memoized recommends and warm specs -------
    server = AdvisorServer(
        registry=SessionRegistry(max_sessions=2),
        executor=RequestExecutor(workers=2),
    )
    server.start_in_background()
    try:
        url = f"{server.url}/warehouses/full/submit"
        start = time.perf_counter()
        server.registry.register("full", schema, workload, system, config=config)
        first = _http_post_raw(url, {"kind": "recommend"})
        cold_s = time.perf_counter() - start
        spec_request = EvaluateSpecRequest(recommendation.best.spec).to_dict()
        memoized, evaluate = [], []
        for _ in range(rounds):
            start = time.perf_counter()
            body = _http_post_raw(url, {"kind": "recommend"})
            memoized.append(time.perf_counter() - start)
            assert body == first, "a memoized recommend changed its body"
            start = time.perf_counter()
            _http_post_raw(url, spec_request)
            evaluate.append(time.perf_counter() - start)
    finally:
        server.stop()
    assert json.loads(first)["fingerprint"] == emitted

    memoized_s = sorted(memoized)[len(memoized) // 2]
    evaluate_s = sorted(evaluate)[len(evaluate) // 2]
    print()
    print_table(
        f"E11: served recommend ({len(recommendation.evaluated)} candidates, "
        f"{len(first) / 1024:.0f} KB body)",
        ["measurement", "time [ms]", "ratio"],
        [
            ["cold in-process sweep", f"{sweep_s * 1000:.1f}", "1.00x"],
            ["fingerprint (emitter)", f"{emitter_s * 1000:.1f}", f"{emitter_s / sweep_s:.2f}x"],
            ["fingerprint (reference text)", f"{reference_s * 1000:.1f}",
             f"{reference_s / sweep_s:.2f}x"],
            ["cold served recommend", f"{cold_s * 1000:.1f}", f"{cold_s / sweep_s:.2f}x"],
            ["warm served evaluate_spec (p50)", f"{evaluate_s * 1000:.2f}", "1.00x"],
            ["memoized served recommend (p50)", f"{memoized_s * 1000:.2f}",
             f"{memoized_s / evaluate_s:.2f}x"],
        ],
    )

    _append_trajectory(
        {
            "part": "8-served-recommend",
            "quick": quick,
            "candidates": len(recommendation.evaluated),
            "body_bytes": len(first),
            "cold_sweep_ms": round(sweep_s * 1000, 2),
            "fingerprint_ms": round(emitter_s * 1000, 2),
            "reference_fingerprint_ms": round(reference_s * 1000, 2),
            "cold_served_recommend_ms": round(cold_s * 1000, 2),
            "memoized_served_recommend_p50_ms": round(memoized_s * 1000, 3),
            "warm_served_evaluate_p50_ms": round(evaluate_s * 1000, 3),
        }
    )

    if quick:
        return
    assert emitter_s <= 2.0 * sweep_s, (
        f"fingerprint {emitter_s * 1000:.1f} ms over twice the "
        f"{sweep_s * 1000:.1f} ms sweep it certifies"
    )
    assert memoized_s <= 1.5 * evaluate_s, (
        f"memoized recommend {memoized_s * 1000:.2f} ms against a warm "
        f"evaluate_spec {evaluate_s * 1000:.2f} ms"
    )
