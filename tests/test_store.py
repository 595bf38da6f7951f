"""Persistent on-disk evaluation cache: round trips, warm starts, failure modes.

The contract under test (repro.engine.store):

* a second advisor *process* (modelled here as a fresh cache/advisor loading
  the same directory) answers its sweep from the disk store, bit-identically;
* the directory holds exactly two files, and nothing in them is pickled;
* the store holds no page vector and no round-robin disk id: a warm probe
  derives them from the layout it rebuilds;
* a corrupted, truncated or version-mismatched store is silently ignored —
  the run falls back to a cold evaluation with the identical fingerprint and
  then atomically rewrites the store;
* an unwritable store location can never fail an evaluation.
"""

from __future__ import annotations

import json
import os
import sqlite3

import numpy as np
import pytest

import repro
from repro import (
    AdvisorConfig,
    AdvisorSession,
    EngineOptions,
    EvaluationCache,
    SystemParameters,
    recommendation_fingerprint,
    synthetic_schema,
)
import repro.engine.store
from repro.api import EvaluateSpecRequest
from repro.engine import CacheStore, store_salt
from repro.engine.store import (
    BATCHES_FILENAME,
    CANDIDATES_FILENAME,
    ENTRIES_FILENAME,
    StoredCandidate,
    _encode_key,
    _json_member,
    _read_json,
)
from repro.workload.generator import random_query_mix


@pytest.fixture(scope="module")
def scenario():
    schema = synthetic_schema(
        num_dimensions=4,
        levels_per_dimension=3,
        bottom_cardinality=300,
        fact_rows=2_000_000,
        seed=3,
    )
    workload = random_query_mix(schema, num_classes=6, seed=5)
    system = SystemParameters(num_disks=16)
    config = AdvisorConfig(max_fragments=20_000, top_candidates=8)
    return schema, workload, system, config


@pytest.fixture(scope="module")
def skewed_scenario(scenario):
    """``scenario`` with a skewed ``dim0``: 14 of its 30 candidates are greedy.

    Every candidate of ``scenario`` is round-robin, so its store holds no
    disk id at all; this store's greedy rows hold theirs.
    """
    schema, workload, system, config = scenario
    return schema.with_skew({"dim0": 0.8}), workload, system, config


def _advisor(scenario, cache_dir, vectorize=True):
    schema, workload, system, config = scenario
    return AdvisorSession(
        schema,
        workload,
        system,
        config,
        options=EngineOptions(cache_dir=str(cache_dir), vectorize=vectorize),
    )


def _payload(i):
    """A JSON report payload of about 10 KB."""
    return {"fill": str(i) * 10_000}


def _insert_report_row(cache_dir, key_text, payload) -> None:
    connection = sqlite3.connect(cache_dir / ENTRIES_FILENAME)
    connection.execute("INSERT INTO entries VALUES (?, ?)", (key_text, payload))
    connection.commit()
    connection.close()


def _two_mix_store(scenario, cache_dir):
    """A store holding the sweeps of two 6-class mixes (two candidate groups)."""
    schema, _, system, config = scenario
    options = EngineOptions(cache_dir=str(cache_dir))
    fingerprints = {}
    for seed in (5, 6):
        workload = random_query_mix(schema, num_classes=6, seed=seed)
        session = AdvisorSession(schema, workload, system, config, options=options)
        fingerprints[seed] = session.recommend().fingerprint
    return fingerprints


def _read_members(cache_dir):
    with np.load(cache_dir / CANDIDATES_FILENAME, allow_pickle=False) as data:
        return {name: data[name] for name in data.files}


def _write_members(cache_dir, members) -> None:
    with open(cache_dir / CANDIDATES_FILENAME, "wb") as handle:
        np.savez(handle, **members)


class TestRoundTrip:
    def test_cold_run_writes_all_store_files(self, scenario, tmp_path):
        advisor = _advisor(scenario, tmp_path)
        advisor.recommend()
        assert (tmp_path / ENTRIES_FILENAME).exists()
        assert (tmp_path / CANDIDATES_FILENAME).exists()
        # No leftover temp files: saves are write-temp-then-rename.
        assert not list(tmp_path.glob("*.tmp"))

    def test_store_load_returns_the_saved_entries(self, scenario, tmp_path):
        advisor = _advisor(scenario, tmp_path)
        advisor.recommend()
        candidates, reports = CacheStore(tmp_path).load()
        assert len(candidates) == len(dict(advisor.cache._candidates))
        assert set(candidates) == set(advisor.cache._candidates)
        # The candidate-exclusion report rides along with the store.
        assert len(reports) == 1

    def test_candidates_are_stored_columnar_not_pickled(self, scenario, tmp_path):
        from repro.engine import CandidateColumns

        advisor = _advisor(scenario, tmp_path)
        advisor.recommend()
        candidates, _reports = CacheStore(tmp_path).load()
        assert candidates
        assert all(
            isinstance(value.decode(), CandidateColumns)
            for value in candidates.values()
        )

    def test_loaded_candidate_arrays_retain_no_base(self, skewed_scenario, tmp_path):
        """Regression: loaded per-candidate arrays used to be numpy *views*
        into the group's stacked cube / concatenated disk-id vector, so one
        surviving candidate pinned its whole group's arrays in memory.  A
        load decodes nothing; each decode copies its candidate's slices."""
        advisor = _advisor(skewed_scenario, tmp_path)
        advisor.recommend()
        candidates, _reports = CacheStore(tmp_path).load()
        assert candidates
        assert not any(handle.decoded for handle in candidates.values())
        greedy = 0
        for handle in candidates.values():
            value = handle.decode()
            assert handle.decoded
            columns = value.columns
            arrays = [
                columns.metrics,
                columns.disks_used,
                columns.sequential,
                columns.forced,
            ]
            if value.allocation_disks is not None:
                greedy += 1
                arrays.append(value.allocation_disks)
            for array in arrays:
                assert array.base is None, "candidate array is a view"
        assert greedy == 14

    def test_disk_hits_are_counted(self, scenario, tmp_path):
        cold = _advisor(scenario, tmp_path)
        cold.recommend()
        warm = _advisor(scenario, tmp_path)
        warm.recommend()
        stats = warm.cache.stats
        assert warm.cache.loaded_from_disk > 0
        assert stats.candidate_disk_hits == stats.candidate_hits > 0
        assert stats.disk_hit_rate >= 0.9

    @pytest.mark.parametrize("fixture", ["scenario", "skewed_scenario"])
    def test_alloc_disks_hold_exactly_the_greedy_rows(self, request, tmp_path, fixture):
        # Only greedy rows store disk ids, each span as long as its fragment
        # count; no page vector and no round-robin disk id is stored.
        cold = _advisor(request.getfixturevalue(fixture), tmp_path).recommend()
        by_label = {c.label: c for c in cold.recommendation.evaluated}
        members = _read_members(tmp_path)
        assert int(members["__groups__"][()]) == 1
        assert not [name for name in members if "pages" in name]
        meta = _read_json(members["c0/meta"])
        assert "alloc_offsets" not in meta
        greedy = [
            by_label[parts[3]]
            for parts, scheme in zip(
                _read_json(members["c0/keys"]), meta["allocation_schemes"]
            )
            if scheme == "greedy_size"
        ]
        assert len(greedy) == (14 if fixture == "skewed_scenario" else 0)
        assert len(greedy) == sum(
            c.allocation.scheme == "greedy_size" for c in by_label.values()
        )
        expected = [c.allocation.disk_of_fragment for c in greedy]
        stored = members["c0/alloc_disks"]
        assert stored.size == sum(c.layout.fragment_count for c in greedy)
        assert np.array_equal(stored, np.concatenate([np.empty(0, int), *expected]))

    @pytest.mark.parametrize("vectorize", [True, False])
    def test_store_holds_two_files_and_no_pickle(self, scenario, tmp_path, vectorize):
        # Batched or scalar, a sweep persists only candidates and reports:
        # access structures stay in memory, and every sqlite row is JSON.
        _advisor(scenario, tmp_path, vectorize=vectorize).recommend()
        assert sorted(os.listdir(tmp_path)) == [CANDIDATES_FILENAME, ENTRIES_FILENAME]
        connection = sqlite3.connect(tmp_path / ENTRIES_FILENAME)
        payloads = [row[0] for row in connection.execute("SELECT payload FROM entries")]
        connection.close()
        assert payloads
        for payload in payloads:
            json.loads(payload)


class TestWarmStartParity:
    def test_cold_warm_and_corrupted_fingerprints_match(self, scenario, tmp_path):
        cold = _advisor(scenario, tmp_path).recommend().recommendation
        fingerprint = recommendation_fingerprint(cold)

        warm_advisor = _advisor(scenario, tmp_path)
        warm = warm_advisor.recommend().recommendation
        assert recommendation_fingerprint(warm) == fingerprint
        assert warm_advisor.cache.stats.disk_hit_rate >= 0.9

        # Corrupt every file in place: the store must be silently ignored.
        (tmp_path / ENTRIES_FILENAME).write_bytes(b"this is not a database")
        (tmp_path / CANDIDATES_FILENAME).write_bytes(b"\x00\x01garbage")
        corrupted_advisor = _advisor(scenario, tmp_path)
        corrupted = corrupted_advisor.recommend().recommendation
        assert recommendation_fingerprint(corrupted) == fingerprint
        assert corrupted_advisor.cache.loaded_from_disk == 0
        assert corrupted_advisor.cache.stats.disk_hits == 0

        # ... and the corrupted store was atomically replaced by a fresh one.
        recovered_advisor = _advisor(scenario, tmp_path)
        recovered = recovered_advisor.recommend().recommendation
        assert recommendation_fingerprint(recovered) == fingerprint
        assert recovered_advisor.cache.stats.disk_hit_rate >= 0.9

    def test_warm_evaluate_decodes_only_the_probed_candidate(self, scenario, tmp_path):
        cold = _advisor(scenario, tmp_path)
        spec = cold.recommend().recommendation.ranked[2].candidate.spec
        request = EvaluateSpecRequest(spec)
        expected = cold.evaluate(request).to_dict(include_allocation=True)

        warm = _advisor(scenario, tmp_path)
        entries = warm.cache._candidates
        assert entries and all(isinstance(v, StoredCandidate) for v in entries.values())
        answer = warm.evaluate(request).to_dict(include_allocation=True)
        assert answer == expected
        assert warm.cache.stats.candidate_disk_hits == 1
        # Exactly the probed candidate left its handle; every other stays
        # undecoded.
        probed = [
            key for key, v in entries.items() if not isinstance(v, StoredCandidate)
        ]
        assert len(probed) == 1 and probed[0][2] == spec.label
        assert not any(
            v.decoded for v in entries.values() if isinstance(v, StoredCandidate)
        )

    def test_warm_round_robin_allocation_is_the_cold_sweeps(self, scenario, tmp_path):
        # A warm round-robin candidate's placement is built by the cold
        # sweep's call: the same lazy type, deriving the same vectors.
        from repro.allocation.round_robin import RoundRobinAllocation

        cold = _advisor(scenario, tmp_path).recommend().recommendation
        warm_advisor = _advisor(scenario, tmp_path)
        warm = warm_advisor.recommend().recommendation
        stats = warm_advisor.cache.stats
        assert stats.candidate_disk_hits == stats.candidate_hits == len(cold.evaluated)
        for expected, answer in zip(cold.evaluated, warm.evaluated):
            assert type(answer.allocation) is type(expected.allocation)
            assert isinstance(answer.allocation, RoundRobinAllocation)
            for vector in ("disk_of_fragment", "fragment_pages"):
                derived = getattr(answer.allocation, vector)
                reference = getattr(expected.allocation, vector)
                assert derived.dtype == reference.dtype
                assert derived.tobytes() == reference.tobytes()

    def test_warm_recommend_leaves_the_other_warehouse_undecoded(
        self, scenario, tmp_path
    ):
        fingerprints = _two_mix_store(scenario, tmp_path)
        schema, _, system, config = scenario
        workload = random_query_mix(schema, num_classes=6, seed=5)
        warm = AdvisorSession(
            schema,
            workload,
            system,
            config,
            options=EngineOptions(cache_dir=str(tmp_path)),
        )
        assert warm.recommend().fingerprint == fingerprints[5]
        stats = warm.cache.stats
        assert stats.candidate_disk_hits == stats.candidate_hits > 0
        own = EvaluationCache.workload_signature(workload)
        others = {
            key: value
            for key, value in warm.cache._candidates.items()
            if key[3] != own
        }
        assert others
        assert all(
            isinstance(value, StoredCandidate) and not value.decoded
            for value in others.values()
        )


class TestFailureModes:
    def test_version_salt_mismatch_is_ignored(self, scenario, tmp_path, monkeypatch):
        cold = _advisor(scenario, tmp_path)
        fingerprint = recommendation_fingerprint(cold.recommend().recommendation)
        # A future repro version computes a different salt: the old store
        # must never be trusted, only silently replaced.
        monkeypatch.setattr(repro, "__version__", "999.0.0")
        mismatched = _advisor(scenario, tmp_path)
        assert mismatched.cache.loaded_from_disk == 0
        result = mismatched.recommend().recommendation
        assert recommendation_fingerprint(result) == fingerprint

    def test_format_3_directory_runs_cold_and_loses_its_structures(
        self, scenario, tmp_path, monkeypatch
    ):
        # A directory written under format 3's salt, with a stray
        # structures.npz beside it: both salted files are mismatches, the run
        # answers cold, and its save removes the format-3 structure file.
        with monkeypatch.context() as patch:
            patch.setattr(repro.engine.store, "STORE_FORMAT_VERSION", 3)
            cold = _advisor(scenario, tmp_path).recommend().recommendation
        fingerprint = recommendation_fingerprint(cold)
        (tmp_path / BATCHES_FILENAME).write_bytes(b"\x00format-3 batches")
        upgraded = _advisor(scenario, tmp_path)
        assert upgraded.cache.stats.store_salt_mismatches == 2
        assert upgraded.cache.loaded_from_disk == 0
        result = upgraded.recommend().recommendation
        assert recommendation_fingerprint(result) == fingerprint
        assert not (tmp_path / BATCHES_FILENAME).exists()
        assert sorted(os.listdir(tmp_path)) == [CANDIDATES_FILENAME, ENTRIES_FILENAME]

    def test_format_5_directory_runs_cold_and_is_rewritten_as_format_6(
        self, scenario, tmp_path, monkeypatch
    ):
        with monkeypatch.context() as patch:
            patch.setattr(repro.engine.store, "STORE_FORMAT_VERSION", 5)
            cold = _advisor(scenario, tmp_path).recommend().recommendation
        fingerprint = recommendation_fingerprint(cold)
        upgraded = _advisor(scenario, tmp_path)
        assert upgraded.cache.stats.store_salt_mismatches == 2
        assert upgraded.cache.loaded_from_disk == 0
        result = upgraded.recommend().recommendation
        assert recommendation_fingerprint(result) == fingerprint
        # The cold run's save rewrote both files under format 6's salt.
        store = CacheStore(tmp_path)
        candidates, reports = store.load()
        assert repro.engine.store.STORE_FORMAT_VERSION == 6
        assert store.load_stats.salt_mismatches == 0
        assert candidates and len(reports) == 1

    def test_salt_covers_the_package_version(self, monkeypatch):
        before = store_salt()
        monkeypatch.setattr(repro, "__version__", "999.0.0")
        assert store_salt() != before

    def test_unwritable_cache_dir_is_harmless(self, scenario, tmp_path):
        # A cache "directory" that is actually a file: loads nothing, saves
        # nowhere, and the evaluation still succeeds bit-identically.
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("occupied")
        schema, workload, system, config = scenario
        reference = AdvisorSession(schema, workload, system, config).recommend().recommendation
        advisor = _advisor(scenario, blocker)
        result = advisor.recommend().recommendation
        assert recommendation_fingerprint(result) == recommendation_fingerprint(reference)
        assert advisor.cache.loaded_from_disk == 0
        assert advisor.persist_cache() is None
        assert blocker.read_text() == "occupied"

    def test_missing_directory_is_created_on_save(self, scenario, tmp_path):
        nested = tmp_path / "a" / "b" / "cache"
        advisor = _advisor(scenario, nested)
        advisor.recommend()
        assert (nested / ENTRIES_FILENAME).exists()

    def test_truncated_sqlite_only_still_loads_candidates(self, scenario, tmp_path):
        # The store files are validated independently: a corrupt entry file
        # must not poison the (intact) candidate file.
        cold = _advisor(scenario, tmp_path)
        fingerprint = recommendation_fingerprint(cold.recommend().recommendation)
        (tmp_path / ENTRIES_FILENAME).write_bytes(b"broken")
        advisor = _advisor(scenario, tmp_path)
        result = advisor.recommend().recommendation
        assert recommendation_fingerprint(result) == fingerprint
        # The report was gone, but the candidates warm-started.
        assert advisor.cache.loaded_from_disk > 0
        assert advisor.cache.stats.candidate_disk_hits > 0

    def test_truncated_candidates_only_still_loads_the_rest(self, scenario, tmp_path):
        cold = _advisor(scenario, tmp_path)
        fingerprint = recommendation_fingerprint(cold.recommend().recommendation)
        (tmp_path / CANDIDATES_FILENAME).write_bytes(b"broken")
        advisor = _advisor(scenario, tmp_path)
        # The exclusion report still loads from the intact sqlite file.
        assert advisor.cache.loaded_from_disk == 1
        assert len(advisor.cache._reports) == 1
        result = advisor.recommend().recommendation
        assert recommendation_fingerprint(result) == fingerprint
        assert advisor.cache.stats.candidate_disk_hits == 0


class TestKeyEncoding:
    def test_round_trip(self):
        from repro.engine.store import _decode_key, _encode_key

        salt = store_salt()
        key = ("batch", "abc123", "def456")
        assert _decode_key(salt, _encode_key(salt, key)) == key

    def test_malformed_or_foreign_keys_are_rejected(self):
        import json

        from repro.engine.store import _decode_key, _encode_key

        salt = store_salt()
        assert _decode_key(salt, json.dumps(["other-salt", "a", "b"])) is None
        assert _decode_key(salt, json.dumps([salt])) is None
        assert _decode_key(salt, json.dumps([salt, "a", 7])) is None
        assert _decode_key(salt, json.dumps({"not": "a list"})) is None

    def test_undecodable_payload_skips_that_entry_only(self, scenario, tmp_path):
        # One undecodable report row must forfeit one entry, not the store.
        advisor = _advisor(scenario, tmp_path)
        advisor.recommend()
        _insert_report_row(
            tmp_path, _encode_key(store_salt(), ("bad-entry",)), b"\x80truncated"
        )
        candidates, reports = CacheStore(tmp_path).load()
        assert ("bad-entry",) not in reports
        assert len(reports) == 1
        assert len(candidates) == len(dict(advisor.cache._candidates))

    def test_foreign_salted_rows_are_skipped_not_fatal(self, scenario, tmp_path):
        # A single foreign-salted row inside an otherwise valid store must be
        # skipped without discarding the valid entries.
        advisor = _advisor(scenario, tmp_path)
        advisor.recommend()
        _insert_report_row(tmp_path, '["foreign-salt", "x"]', b"{}")
        candidates, reports = CacheStore(tmp_path).load()
        assert len(candidates) == len(dict(advisor.cache._candidates))
        assert len(reports) == 1
        assert all(len(key) > 0 for key in reports)


class TestCacheStoreHook:
    def test_attach_is_idempotent_per_directory(self, scenario, tmp_path):
        cache = EvaluationCache()
        store = CacheStore(tmp_path)
        assert cache.attach(store) == 0  # empty directory
        assert cache.attach(CacheStore(tmp_path)) == 0
        assert cache.store is store

    def test_attach_to_another_directory_flushes_the_old_store(self, scenario, tmp_path):
        # Unsaved entries accumulated for directory A must reach A before the
        # cache starts persisting to directory B.
        schema, workload, system, config = scenario
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        advisor = AdvisorSession(
            schema, workload, system, config, options=EngineOptions(cache_dir=str(dir_a))
        )
        advisor.recommend()  # attaches A and persists the sweep there
        # Make the cache dirty again, then switch stores.
        advisor.cache.put_exclusions(("extra",), _payload(0))
        assert advisor.cache.dirty
        advisor.cache.attach(CacheStore(dir_b))
        _, reports_a = CacheStore(dir_a).load()
        assert reports_a[("extra",)] == _payload(0)

    def test_recomputed_entries_stop_counting_as_disk_hits(self, scenario):
        schema, workload, system, config = scenario
        session = AdvisorSession(schema, workload, system, config)
        specs, _ = session.generate_specs()
        context = session.engine.context(specs=specs)
        cache = EvaluationCache()
        cache._disk_keys.add(cache.candidate_key(context, specs[0]))
        # An in-process (re)computation of the same key must clear the
        # disk-origin flag, so later hits are not misreported as disk hits.
        cache.put_candidate(context, specs[0], "computed")
        assert cache.get_candidate(context, specs[0]) == "computed"
        assert cache.stats.candidate_hits == 1
        assert cache.stats.candidate_disk_hits == 0

    def test_persist_skips_clean_caches(self, scenario, tmp_path):
        advisor = _advisor(scenario, tmp_path)
        advisor.recommend()  # engine persisted at the end of the sweep
        assert not advisor.cache.dirty
        assert advisor.persist_cache() is None

    def test_save_and_load_are_symmetric(self, scenario, tmp_path):
        schema, workload, system, config = scenario
        advisor = AdvisorSession(schema, workload, system, config)
        advisor.recommend()
        store = CacheStore(tmp_path / "explicit")
        written = advisor.cache.save(store)
        # Candidates plus the one candidate-exclusion report; access
        # structures stay in memory.
        candidates = len(advisor.cache._candidates)
        assert written == candidates + 1
        fresh = EvaluationCache()
        assert fresh.load(store) == written
        assert len(fresh) == candidates

    def test_bounded_load_keeps_at_most_max_entries_reports(self, tmp_path):
        writer = EvaluationCache()
        writer.put_exclusions(("a",), _payload(1))
        writer.put_exclusions(("b",), _payload(2))
        assert writer.save(CacheStore(tmp_path)) == 2
        bounded = EvaluationCache(max_entries=1)
        bounded.load(CacheStore(tmp_path))
        assert len(bounded._reports) == 1

    def test_saves_merge_instead_of_overwriting(self, tmp_path):
        # Two writers with disjoint entries: the second save must union with
        # the directory's content, not replace it last-one-wins.
        first = EvaluationCache()
        first.put_exclusions(("a",), _payload(1))
        assert first.save(CacheStore(tmp_path)) == 1
        second = EvaluationCache()
        second.put_exclusions(("b",), _payload(2))
        assert second.save(CacheStore(tmp_path)) == 2
        _, reports = CacheStore(tmp_path).load()
        assert reports == {("a",): _payload(1), ("b",): _payload(2)}

    def test_shared_cache_dir_with_tuning_studies(self, scenario, tmp_path):
        from repro.tuning import disk_count_study

        schema, workload, system, config = scenario
        advisor = _advisor(scenario, tmp_path)
        spec = advisor.recommend().recommendation.best.spec
        # A later process runs only the study: the 16-disk setting is the
        # candidate the recommend() run already evaluated and spilled.
        study_cache = EvaluationCache()
        disk_count_study(
            schema,
            workload,
            system,
            spec,
            disk_counts=(8, 16),
            config=config,
            cache=study_cache,
            options=EngineOptions(cache_dir=str(tmp_path)),
        )
        assert study_cache.loaded_from_disk > 0
        assert study_cache.stats.candidate_disk_hits == 1


def _store_size(cache_dir) -> int:
    return sum(
        (cache_dir / name).stat().st_size
        for name in (ENTRIES_FILENAME, CANDIDATES_FILENAME)
        if (cache_dir / name).exists()
    )


class TestStoreMaintenance:
    """Byte-budgeted LRU garbage collection and merge-on-save."""

    def test_invalid_budget(self, tmp_path):
        with pytest.raises(ValueError):
            CacheStore(tmp_path, max_bytes=0)
        with pytest.raises(ValueError):
            CacheStore(tmp_path, max_bytes=-5)

    def test_lru_evicts_untouched_entries_first(self, tmp_path):
        # Four 10 KB entries on disk; a second process touches two of them,
        # adds a fifth, and saves under a budget that holds only three.
        first = EvaluationCache()
        for i in range(1, 5):
            first.put_exclusions((f"k{i}",), _payload(i))
        assert first.save(CacheStore(tmp_path)) == 4

        budget = 60_000
        second = EvaluationCache()
        budgeted = CacheStore(tmp_path, max_bytes=budget)
        assert second.attach(budgeted) == 4
        # Hits refresh k3/k4; k1/k2 stay merely loaded (not touched).
        assert second.get_exclusions(("k3",)) == _payload(3)
        assert second.get_exclusions(("k4",)) == _payload(4)
        second.put_exclusions(("k5",), _payload(5))
        written = second.save(budgeted)
        assert written is not None and 0 < written < 5

        _, reports = CacheStore(tmp_path).load()
        assert _store_size(tmp_path) <= budget
        # Eviction is strictly oldest-first: untouched k1/k2 age out before
        # the entries this run touched, so the survivors form a suffix of the
        # LRU order and the newest entry always makes it.
        order = [("k1",), ("k2",), ("k3",), ("k4",), ("k5",)]
        survivors = [key for key in order if key in reports]
        assert survivors == order[len(order) - len(survivors) :]
        assert ("k1",) not in reports
        assert ("k5",) in reports

        # Survivors still load for a third process.
        third = EvaluationCache()
        assert third.attach(CacheStore(tmp_path)) == len(survivors)
        assert third.get_exclusions(("k5",)) == _payload(5)

    def test_budget_smaller_than_any_store_clears_the_directory(self, tmp_path):
        cache = EvaluationCache()
        cache.put_exclusions(("k",), {"fill": "x" * 50_000})
        store = CacheStore(tmp_path, max_bytes=1_000)
        assert cache.save(store) == 0
        assert _store_size(tmp_path) == 0
        assert CacheStore(tmp_path).load() == ({}, {})

    def test_unbudgeted_saves_never_evict(self, tmp_path):
        cache = EvaluationCache()
        for i in range(1, 9):
            cache.put_exclusions((f"k{i}",), _payload(i))
        assert cache.save(CacheStore(tmp_path)) == 8
        _, reports = CacheStore(tmp_path).load()
        assert len(reports) == 8

    def test_budgeted_sweeps_stay_under_budget_and_warm_start(
        self, scenario, tmp_path
    ):
        schema, workload, system, config = scenario
        baseline_dir = tmp_path / "unbounded"
        _advisor(scenario, baseline_dir).recommend()
        unbounded = _store_size(baseline_dir)

        # Three quarters of the unbounded footprint: tight enough to force
        # eviction, loose enough that survivors keep serving warm starts.
        budget_mb = (unbounded * 0.75) / (1024 * 1024)
        effective_budget = int(budget_mb * 1024 * 1024)
        bounded_dir = tmp_path / "bounded"
        options = EngineOptions(
            cache_dir=str(bounded_dir), cache_max_mb=budget_mb
        )
        cold = AdvisorSession(schema, workload, system, config, options=options)
        fingerprint = recommendation_fingerprint(cold.recommend().recommendation)
        assert _store_size(bounded_dir) <= effective_budget

        warm = AdvisorSession(schema, workload, system, config, options=options)
        assert warm.cache.loaded_from_disk > 0
        assert recommendation_fingerprint(warm.recommend().recommendation) == fingerprint
        assert _store_size(bounded_dir) <= effective_budget

    def test_merged_second_sweep_preserves_fingerprint(self, scenario, tmp_path):
        # First sweep writes the store; a sweep on another disk count merges
        # into the same directory; the original sweep must still warm-start
        # bit-identically afterwards.
        schema, workload, system, config = scenario
        cold = _advisor(scenario, tmp_path)
        fingerprint = recommendation_fingerprint(cold.recommend().recommendation)
        other_system = SystemParameters(num_disks=8)
        AdvisorSession(
            schema,
            workload,
            other_system,
            config,
            options=EngineOptions(cache_dir=str(tmp_path)),
        ).recommend()
        warm = _advisor(scenario, tmp_path)
        assert recommendation_fingerprint(warm.recommend().recommendation) == fingerprint
        assert warm.cache.stats.disk_hit_rate >= 0.9


def _edit_meta(field, change):
    def edit(members):
        meta = _read_json(members["c0/meta"])
        meta[field] = change(meta[field])
        members["c0/meta"] = _json_member(meta)

    return edit


def _edit_array(name, change):
    def edit(members):
        members[f"c0/{name}"] = change(members[f"c0/{name}"])

    return edit


def _set_each_candidate(value):
    """A metric cube with ``value`` in one field of every candidate."""

    def change(metrics):
        metrics = metrics.copy()
        metrics[:, -1, -1] = value
        return metrics

    return change


#: One bad value each in group 0 of a well-formed store.  The disk ids are
#: only out of range for the probing system's 16 disks, so the probe (not
#: the load) has to reject them; the load lets non-finite metrics through
#: too, and each probe's decode rejects its own candidate.
_BAD_VALUES = {
    "prefetch-policy": _edit_meta(
        "prefetch", lambda entries: [[*entries[0][:3], "bogus"], *entries[1:]]
    ),
    "prefetch-length": _edit_meta(
        "prefetch", lambda entries: [entries[0][:1], *entries[1:]]
    ),
    "offsets-shifted": _edit_array(
        "alloc_disks", lambda disks: np.concatenate([disks[:1], disks])
    ),
    "disk-ids-out-of-range": _edit_array(
        "alloc_disks", lambda disks: np.full_like(disks, 999)
    ),
    "metrics-cut": _edit_array("metrics", lambda metrics: metrics[:, :, :3].copy()),
    "allocation-scheme": _edit_meta(
        "allocation_schemes", lambda schemes: ["bogus", *schemes[1:]]
    ),
    "fragments-total": _edit_meta(
        "fragments_total", lambda totals: [totals[0] + 0.5, *totals[1:]]
    ),
    "nan-metric": _edit_array("metrics", _set_each_candidate(np.nan)),
    "infinite-metric": _edit_array("metrics", _set_each_candidate(np.inf)),
}
#: The cases that edit the greedy rows' disk ids run on the skewed store
#: (the uniform one stores none); out-of-range ids reach only those rows,
#: so the round-robin rows stay disk hits.
_GREEDY_CASES = {"offsets-shifted", "disk-ids-out-of-range"}


class TestRobustnessCounters:
    """Every degraded load is counted: salt mismatches, corrupt entries,
    fallback (whole-file) loads — surfaced via ``CacheStats`` and, through
    the session registry, ``GET /healthz``."""

    def test_clean_loads_count_nothing(self, scenario, tmp_path):
        _advisor(scenario, tmp_path).recommend()
        warm = _advisor(scenario, tmp_path)
        stats = warm.cache.stats
        assert stats.store_salt_mismatches == 0
        assert stats.store_corrupt_entries == 0
        assert stats.store_fallback_loads == 0
        assert stats.store_load_anomalies == 0

    def test_salt_mismatch_is_counted_per_file(self, scenario, tmp_path, monkeypatch):
        _advisor(scenario, tmp_path).recommend()
        monkeypatch.setattr(repro, "__version__", "999.0.0")
        mismatched = _advisor(scenario, tmp_path)
        # Both store files (entries, candidates) carry the salt.
        assert mismatched.cache.stats.store_salt_mismatches == 2
        assert mismatched.cache.stats.store_fallback_loads == 0

    @pytest.mark.parametrize("filename", [ENTRIES_FILENAME, CANDIDATES_FILENAME])
    def test_corrupting_each_file_kind_counts_a_fallback(
        self, scenario, tmp_path, filename
    ):
        _advisor(scenario, tmp_path).recommend()
        (tmp_path / filename).write_bytes(b"\x00\x01 this is rubble")
        degraded = _advisor(scenario, tmp_path)
        stats = degraded.cache.stats
        assert stats.store_fallback_loads == 1
        assert stats.store_salt_mismatches == 0
        # The other file still loads.
        assert degraded.cache.loaded_from_disk > 0

    def test_undecodable_entry_is_counted_as_corrupt(self, scenario, tmp_path):
        _advisor(scenario, tmp_path).recommend()
        _insert_report_row(
            tmp_path, _encode_key(store_salt(), ("bad-entry",)), b"\x80trunc"
        )
        degraded = _advisor(scenario, tmp_path)
        assert degraded.cache.stats.store_corrupt_entries >= 1
        assert degraded.cache.stats.store_fallback_loads == 0
        assert degraded.cache.loaded_from_disk > 0

    def test_malformed_group_forfeits_only_its_own_candidates(self, scenario, tmp_path):
        # Two candidate groups (two 6-class mixes); group 0 loses its keys
        # member.  Only its candidates go: the intact group loads whole.
        _two_mix_store(scenario, tmp_path)
        members = _read_members(tmp_path)
        assert int(members["__groups__"][()]) == 2
        del members["c0/keys"]
        _write_members(tmp_path, members)
        intact = {tuple(parts[1:]) for parts in _read_json(members["c1/keys"])}

        store = CacheStore(tmp_path)
        candidates, _reports = store.load()
        assert set(candidates) == intact
        assert store.load_stats.corrupt_entries == 1
        assert store.load_stats.fallback_loads == 0

    @pytest.mark.parametrize("edit", sorted(_BAD_VALUES))
    def test_one_bad_value_falls_back_cold_and_is_counted(
        self, request, tmp_path, edit
    ):
        # One bad value in group 0 of a well-formed store: the load-time
        # group check or the probe-time allocation check must catch it, so
        # the sweep answers cold instead of crashing or changing its answer.
        scenario = request.getfixturevalue(
            "skewed_scenario" if edit in _GREEDY_CASES else "scenario"
        )
        cold = _advisor(scenario, tmp_path).recommend().fingerprint
        members = _read_members(tmp_path)
        schemes = _read_json(members["c0/meta"])["allocation_schemes"]
        assert "greedy_size" in schemes or edit not in _GREEDY_CASES
        _BAD_VALUES[edit](members)
        _write_members(tmp_path, members)
        degraded = _advisor(scenario, tmp_path)
        assert degraded.recommend().fingerprint == cold
        stats = degraded.cache.stats
        assert stats.store_corrupt_entries >= 1
        spared = (
            schemes.count("round_robin") if edit == "disk-ids-out-of-range" else 0
        )
        assert stats.candidate_disk_hits == spared

    @pytest.mark.parametrize(
        "member, position, value",
        [
            ("metrics", (0, 0, 0), np.nan),
            ("metrics", (0, 0, 0), -np.inf),
        ],
    )
    def test_one_non_finite_value_rejects_only_its_candidate(
        self, scenario, tmp_path, member, position, value
    ):
        # One value of candidate 0 is not finite: its probe counts 1 corrupt
        # entry and evaluates it cold, and every other stored candidate is
        # still a disk hit.
        cold = _advisor(scenario, tmp_path).recommend().fingerprint
        members = _read_members(tmp_path)
        edited = members[f"c0/{member}"].copy()
        edited[position] = value
        members[f"c0/{member}"] = edited
        _write_members(tmp_path, members)
        degraded = _advisor(scenario, tmp_path)
        stored = degraded.cache.loaded_from_disk - 1  # less the one report
        assert degraded.recommend().fingerprint == cold
        stats = degraded.cache.stats
        assert stats.store_corrupt_entries == 1
        assert stats.candidate_misses == 1
        assert stats.candidate_disk_hits == stats.candidate_hits == stored - 1

    def test_span_that_misfits_the_layout_is_a_counted_miss(
        self, skewed_scenario, tmp_path
    ):
        # One disk-id slot moves from one greedy row to the next, their
        # fragment counts moving with it: the spans still fill alloc_disks,
        # so the group loads, and only the probes, which rebuild each
        # layout, can reject the two rows.  Both are misses evaluated cold;
        # every other candidate is still a disk hit.
        cold = _advisor(skewed_scenario, tmp_path).recommend().fingerprint
        members = _read_members(tmp_path)
        meta = _read_json(members["c0/meta"])
        first, second = [
            row
            for row, scheme in enumerate(meta["allocation_schemes"])
            if scheme == "greedy_size"
        ][:2]
        meta["fragments_total"][first] -= 1
        meta["fragments_total"][second] += 1
        members["c0/meta"] = _json_member(meta)
        _write_members(tmp_path, members)
        degraded = _advisor(skewed_scenario, tmp_path)
        stored = degraded.cache.loaded_from_disk - 1  # less the one report
        assert degraded.recommend().fingerprint == cold
        stats = degraded.cache.stats
        assert stats.store_corrupt_entries == 2
        assert stats.candidate_misses == 2
        assert stats.candidate_disk_hits == stats.candidate_hits == stored - 2

    def test_round_robin_count_that_misfits_the_layout_is_a_counted_miss(
        self, scenario, tmp_path
    ):
        # A round-robin row stores no span: its fragment count alone must
        # fit the rebuilt layout, or the probe counts it corrupt and that
        # one candidate runs cold.
        cold = _advisor(scenario, tmp_path).recommend().fingerprint
        members = _read_members(tmp_path)
        meta = _read_json(members["c0/meta"])
        assert meta["allocation_schemes"][0] == "round_robin"
        meta["fragments_total"][0] += 1
        members["c0/meta"] = _json_member(meta)
        _write_members(tmp_path, members)
        degraded = _advisor(scenario, tmp_path)
        stored = degraded.cache.loaded_from_disk - 1  # less the one report
        assert degraded.recommend().fingerprint == cold
        stats = degraded.cache.stats
        assert stats.store_corrupt_entries == 1
        assert stats.candidate_misses == 1
        assert stats.candidate_disk_hits == stats.candidate_hits == stored - 1

    def test_unprobed_non_finite_value_leaves_the_store_on_save(
        self, scenario, tmp_path
    ):
        # One metric of a stored mix-6 candidate is NaN.  A sweep of mix 7
        # never probes it, so only its save's merge decodes it: the save
        # drops that one candidate, counts it once, and still writes the
        # new sweep, which a later process then answers from disk.
        _two_mix_store(scenario, tmp_path)
        members = _read_members(tmp_path)
        metrics = members["c1/metrics"].copy()
        metrics[0, 0, 0] = np.nan
        members["c1/metrics"] = metrics
        _write_members(tmp_path, members)
        bad_key = tuple(_read_json(members["c1/keys"])[0][1:])
        stored = set(CacheStore(tmp_path).load()[0])
        assert bad_key in stored

        schema, _, system, config = scenario
        workload = random_query_mix(schema, num_classes=6, seed=7)
        options = EngineOptions(cache_dir=str(tmp_path))
        cold = AdvisorSession(schema, workload, system, config, options=options)
        result = cold.recommend()
        assert cold.cache.store.load_stats.corrupt_entries == 1
        saved = set(CacheStore(tmp_path).load()[0])
        assert bad_key not in saved
        assert stored - {bad_key} <= saved
        assert len(saved) == len(stored) - 1 + len(result.recommendation.evaluated)

        warm = AdvisorSession(schema, workload, system, config, options=options)
        assert warm.recommend().fingerprint == result.fingerprint
        stats = warm.cache.stats
        assert stats.candidate_misses == 0
        assert stats.candidate_disk_hits == stats.candidate_hits > 0

    def test_counters_survive_describe(self, scenario, tmp_path):
        _advisor(scenario, tmp_path).recommend()
        (tmp_path / CANDIDATES_FILENAME).write_bytes(b"rubble")
        degraded = _advisor(scenario, tmp_path)
        assert "store anomalies" in degraded.cache.stats.describe()
        assert "1 fallback" in degraded.cache.stats.describe()

    def test_store_load_stats_copy_is_independent(self, tmp_path):
        store = CacheStore(tmp_path)
        snapshot = store.load_stats.copy()
        store.load_stats.corrupt_entries += 5
        assert snapshot.corrupt_entries == 0
