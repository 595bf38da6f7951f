"""Persistent on-disk evaluation cache: round trips, warm starts, failure modes.

The contract under test (repro.engine.store):

* a second advisor *process* (modelled here as a fresh cache/advisor loading
  the same directory) answers its sweep from the disk store, bit-identically;
* the directory holds exactly one file, and nothing in it is pickled;
* the store holds no page vector and no round-robin disk id: a warm probe
  derives them from the layout it rebuilds;
* a corrupted, truncated or version-mismatched store is silently ignored —
  the run falls back to a cold evaluation with the identical fingerprint and
  then atomically rewrites the store; a damaged byte anywhere in the file is
  caught by the zip checksum or a load check and counted, never loaded;
* an unwritable store location can never fail an evaluation.
"""

from __future__ import annotations

import json
import os

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
    CorruptCandidate,
    StoredCandidate,
    _json_member,
    _key_from_parts,
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
    """An exclusion report payload of about 10 KB (a load drops any other
    shape)."""
    return {"specs": [], "considered": 1, "excluded": {"fill": [str(i) * 10_000]}}


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


def _edit_reports(cache_dir, change) -> None:
    """Rewrite the store's ``reports`` member as ``change(entries)``."""
    members = _read_members(cache_dir)
    members["reports"] = _json_member(change(_read_json(members["reports"])))
    _write_members(cache_dir, members)


def _load_with_extra_report(scenario, cache_dir, entry):
    """The reports of a saved sweep's store with ``entry`` appended.

    Checks that only that entry is skipped, and counted once.
    """
    advisor = _advisor(scenario, cache_dir)
    advisor.recommend()
    _edit_reports(cache_dir, lambda entries: [*entries, entry])
    store = CacheStore(cache_dir)
    candidates, reports = store.load()
    assert len(reports) == 1
    assert set(candidates) == set(advisor.cache._candidates)
    assert store.load_stats.corrupt_entries == 1
    return reports


class TestRoundTrip:
    def test_cold_run_writes_all_store_files(self, scenario, tmp_path):
        advisor = _advisor(scenario, tmp_path)
        advisor.recommend()
        assert (tmp_path / CANDIDATES_FILENAME).exists()
        assert not (tmp_path / ENTRIES_FILENAME).exists()
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
    def test_store_holds_one_file_and_no_pickle(self, scenario, tmp_path, vectorize):
        # Batched or scalar, a sweep persists only candidates and reports, in
        # one npz: access structures stay in memory, every member loads
        # without pickle, and the reports member is JSON.
        _advisor(scenario, tmp_path, vectorize=vectorize).recommend()
        assert os.listdir(tmp_path) == [CANDIDATES_FILENAME]
        members = _read_members(tmp_path)
        assert not any(member.dtype.hasobject for member in members.values())
        entries = json.loads(members["reports"].tobytes())
        assert len(entries) == 1
        for parts, payload, last_access in entries:
            assert parts[0] == store_salt()
            assert isinstance(payload, dict)
            assert type(last_access) is int and last_access >= 1


class TestWarmStartParity:
    def test_cold_warm_and_corrupted_fingerprints_match(self, scenario, tmp_path):
        cold = _advisor(scenario, tmp_path).recommend().recommendation
        fingerprint = recommendation_fingerprint(cold)

        warm_advisor = _advisor(scenario, tmp_path)
        warm = warm_advisor.recommend().recommendation
        assert recommendation_fingerprint(warm) == fingerprint
        assert warm_advisor.cache.stats.disk_hit_rate >= 0.9

        # Corrupt the store in place: it must be silently ignored.
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
        # structures.npz beside it: the store file is a mismatch, the run
        # answers cold, and its save removes the format-3 structure file.
        with monkeypatch.context() as patch:
            patch.setattr(repro.engine.store, "STORE_FORMAT_VERSION", 3)
            cold = _advisor(scenario, tmp_path).recommend().recommendation
        fingerprint = recommendation_fingerprint(cold)
        (tmp_path / BATCHES_FILENAME).write_bytes(b"\x00format-3 batches")
        upgraded = _advisor(scenario, tmp_path)
        assert upgraded.cache.stats.store_salt_mismatches == 1
        assert upgraded.cache.loaded_from_disk == 0
        result = upgraded.recommend().recommendation
        assert recommendation_fingerprint(result) == fingerprint
        assert not (tmp_path / BATCHES_FILENAME).exists()
        assert os.listdir(tmp_path) == [CANDIDATES_FILENAME]

    def test_format_6_directory_runs_cold_and_is_rewritten_as_format_7(
        self, scenario, tmp_path, monkeypatch
    ):
        # A directory written under format 6's salt, with format 3's
        # structure file and format 6's report file beside it.  Only the
        # store file is read, so the run counts one salt mismatch and
        # answers cold; its save unlinks both stray files.
        with monkeypatch.context() as patch:
            patch.setattr(repro.engine.store, "STORE_FORMAT_VERSION", 6)
            cold = _advisor(scenario, tmp_path).recommend().fingerprint
        (tmp_path / BATCHES_FILENAME).write_bytes(b"\x00format-3 batches")
        (tmp_path / ENTRIES_FILENAME).write_bytes(b"\x00format-6 reports")
        upgraded = _advisor(scenario, tmp_path)
        assert upgraded.cache.stats.store_salt_mismatches == 1
        assert upgraded.cache.stats.store_fallback_loads == 0
        assert upgraded.cache.loaded_from_disk == 0
        assert upgraded.recommend().fingerprint == cold
        assert os.listdir(tmp_path) == [CANDIDATES_FILENAME]
        # The cold run's save rewrote the store under format 7's salt.
        store = CacheStore(tmp_path)
        candidates, reports = store.load()
        assert repro.engine.store.STORE_FORMAT_VERSION == 7
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
        assert (nested / CANDIDATES_FILENAME).exists()


class TestKeyEncoding:
    def test_round_trip(self, tmp_path):
        key = ("batch", "abc123", "def456")
        assert CacheStore(tmp_path).save({}, {key: _payload(1)}) == 1
        assert CacheStore(tmp_path).load() == ({}, {key: _payload(1)})

    def test_malformed_or_foreign_keys_are_rejected(self):
        salt = store_salt()
        assert _key_from_parts(salt, [salt, "a", "b"]) == ("a", "b")
        assert _key_from_parts(salt, ["other-salt", "a", "b"]) is None
        assert _key_from_parts(salt, [salt]) is None
        assert _key_from_parts(salt, [salt, "a", 7]) is None
        assert _key_from_parts(salt, {"not": "a list"}) is None

    def test_undecodable_payload_skips_that_entry_only(self, scenario, tmp_path):
        # One malformed report entry (no last-access age) must forfeit one
        # entry, not the store.
        entry = [[store_salt(), "bad-entry"], {}]
        assert ("bad-entry",) not in _load_with_extra_report(scenario, tmp_path, entry)

    def test_foreign_salted_rows_are_skipped_not_fatal(self, scenario, tmp_path):
        # A single foreign-salted entry inside an otherwise valid store must
        # be skipped without discarding the valid entries.
        entry = [["foreign-salt", "x"], {}, 1]
        assert ("x",) not in _load_with_extra_report(scenario, tmp_path, entry)

    @pytest.mark.parametrize("age", [-1, 1.5, "1", None, True])
    def test_a_bad_last_access_skips_that_entry_only(self, scenario, tmp_path, age):
        entry = [[store_salt(), "aged"], {}, age]
        assert ("aged",) not in _load_with_extra_report(scenario, tmp_path, entry)

    def test_a_reports_member_that_is_not_json_skips_only_the_reports(
        self, scenario, tmp_path
    ):
        advisor = _advisor(scenario, tmp_path)
        advisor.recommend()
        members = _read_members(tmp_path)
        members["reports"] = np.frombuffer(b"\x80[not json", dtype=np.uint8)
        _write_members(tmp_path, members)
        store = CacheStore(tmp_path)
        candidates, reports = store.load()
        assert reports == {}
        assert set(candidates) == set(advisor.cache._candidates)
        assert store.load_stats.corrupt_entries == 1
        assert store.load_stats.fallback_loads == 0


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
    """Bytes of every file in the store directory (0 when it is missing)."""
    if not cache_dir.exists():
        return 0
    return sum(path.stat().st_size for path in cache_dir.iterdir())


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

        # Each entry takes about 10 KB of the one file and the zip about
        # 1.2 KB: 35,000 bytes hold three entries, not four.
        budget = 35_000
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

    def test_lru_keeps_a_probed_candidate_and_evicts_an_untouched_one(
        self, scenario, tmp_path
    ):
        # A second process probes one stored candidate and saves under half
        # the store's size: the probed candidate is the youngest entry and
        # survives, while candidates nobody touched age out first.
        spec = _advisor(scenario, tmp_path).recommend().recommendation.ranked[2]
        stored = set(CacheStore(tmp_path).load()[0])
        budget = _store_size(tmp_path) // 2

        second = _advisor(scenario, tmp_path)
        second.evaluate(EvaluateSpecRequest(spec.candidate.spec))
        [probed] = [
            key
            for key, value in second.cache._candidates.items()
            if not isinstance(value, StoredCandidate)
        ]
        assert second.cache.save(CacheStore(tmp_path, max_bytes=budget)) is not None
        assert _store_size(tmp_path) <= budget

        survivors = set(CacheStore(tmp_path).load()[0])
        assert probed in survivors
        assert stored - survivors, "no untouched candidate was evicted"

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
        # The one store file carries the salt.
        assert mismatched.cache.stats.store_salt_mismatches == 1
        assert mismatched.cache.stats.store_fallback_loads == 0

    # Format 7 holds one file kind; format 6's report file is no longer read.
    @pytest.mark.parametrize("filename", [CANDIDATES_FILENAME])
    def test_corrupting_each_file_kind_counts_a_fallback(
        self, scenario, tmp_path, filename
    ):
        _advisor(scenario, tmp_path).recommend()
        (tmp_path / filename).write_bytes(b"\x00\x01 this is rubble")
        degraded = _advisor(scenario, tmp_path)
        stats = degraded.cache.stats
        assert stats.store_fallback_loads == 1
        assert stats.store_salt_mismatches == 0
        assert degraded.cache.loaded_from_disk == 0

    def test_undecodable_entry_is_counted_as_corrupt(self, scenario, tmp_path):
        _advisor(scenario, tmp_path).recommend()
        _edit_reports(tmp_path, lambda entries: [*entries, "bad-entry"])
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


def _array_state(array):
    return array.dtype.str, array.shape, array.tobytes()


def _record_state(record):
    """Every stored field of a decoded candidate, in comparable form."""
    columns = record.columns
    return (
        columns.query_names,
        columns.weights,
        columns.fragments_total,
        _array_state(columns.metrics),
        _array_state(columns.disks_used),
        _array_state(columns.sequential),
        _array_state(columns.forced),
        columns.attributes_used,
        record.prefetch,
        record.allocation_scheme,
        None
        if record.allocation_disks is None
        else _array_state(record.allocation_disks),
    )


class TestDamagedStore:
    """Seeded bit flips and truncations of a saved store file: every load
    returns, and what it returns is exactly what was saved or is counted."""

    @pytest.mark.parametrize("fixture", ["scenario", "skewed_scenario"])
    def test_damaged_loads_return_saved_records_or_count_anomalies(
        self, request, tmp_path, fixture
    ):
        _advisor(request.getfixturevalue(fixture), tmp_path).recommend()
        path = tmp_path / CANDIDATES_FILENAME
        intact = path.read_bytes()
        saved, saved_reports = CacheStore(tmp_path).load()
        expected = {key: _record_state(handle.decode()) for key, handle in saved.items()}
        greedy = sum(state[-1] is not None for state in expected.values())
        assert greedy == (14 if fixture == "skewed_scenario" else 0)
        assert len(saved_reports) == 1

        rng = np.random.default_rng(7)
        damaged = []
        for offset, bit in zip(
            rng.integers(0, len(intact), 64).tolist(), rng.integers(0, 8, 64).tolist()
        ):
            flipped = bytearray(intact)
            flipped[offset] ^= 1 << bit
            damaged.append(bytes(flipped))
        damaged += [intact[:cut] for cut in rng.integers(0, len(intact), 16).tolist()]

        counted = 0
        for data in damaged:
            path.write_bytes(data)
            store = CacheStore(tmp_path)
            candidates, reports = store.load()
            for key, handle in candidates.items():
                try:
                    record = handle.decode()
                except CorruptCandidate:
                    continue
                assert _record_state(record) == expected[key]
            for key, payload in reports.items():
                assert payload == saved_reports[key]
            stats = store.load_stats
            anomalies = (
                stats.salt_mismatches + stats.corrupt_entries + stats.fallback_loads
            )
            if len(candidates) + len(reports) < len(expected) + len(saved_reports):
                assert anomalies >= 1
            counted += anomalies > 0
        # Most damage lands in checksummed member bytes.
        assert counted >= len(damaged) // 2

    def test_a_shrunk_member_header_is_caught_by_the_checksum(
        self, scenario, tmp_path
    ):
        # Four bytes off the npy header length of the metric cube shift the
        # array onto the header's padding: every value changes, and a reader
        # that stops where the header says never reaches the zip checksum.
        cold = _advisor(scenario, tmp_path).recommend().fingerprint
        path = tmp_path / CANDIDATES_FILENAME
        data = bytearray(path.read_bytes())
        magic = data.index(b"\x93NUMPY", data.index(b"c0/metrics.npy"))
        assert data[magic + 8] & 4
        data[magic + 8] ^= 4
        path.write_bytes(bytes(data))
        store = CacheStore(tmp_path)
        candidates, reports = store.load()
        assert candidates == {} and len(reports) == 1
        assert store.load_stats.corrupt_entries == 1
        assert _advisor(scenario, tmp_path).recommend().fingerprint == cold

    def test_a_flipped_report_byte_never_changes_the_answer(self, scenario, tmp_path):
        # Change the first digit of the stored report's "considered" count,
        # in whichever store file holds it: the warm run must notice and
        # answer cold, never from the edited count.
        cold = _advisor(scenario, tmp_path).recommend().fingerprint
        marker = b'"considered": '
        [path] = [p for p in tmp_path.iterdir() if marker in p.read_bytes()]
        data = bytearray(path.read_bytes())
        offset = data.index(marker) + len(marker)
        assert chr(data[offset]) in "123456789"
        data[offset] = ord("9") if data[offset] != ord("9") else ord("8")
        path.write_bytes(bytes(data))
        warm = _advisor(scenario, tmp_path)
        assert warm.recommend().fingerprint == cold
        stats = warm.cache.stats
        assert stats.store_corrupt_entries + stats.store_fallback_loads >= 1


def _first_fragmented(specs):
    """The index of the first stored spec with at least one pair."""
    return next(index for index, pairs in enumerate(specs) if pairs)


def _with_spec(payload, pairs):
    """``payload`` with its first fragmented spec replaced by ``pairs``."""
    specs = list(payload["specs"])
    specs[_first_fragmented(specs)] = pairs
    return {**payload, "specs": specs}


#: Edits of the stored exclusion report that keep the file well-formed: the
#: store is rewritten with ``np.savez``, so every checksum holds.
_BAD_REPORTS = {
    "no-excluded": lambda payload: {
        name: value for name, value in payload.items() if name != "excluded"
    },
    "one-part-pair": lambda payload: _with_spec(payload, [["x"]]),
    "considered-as-text": lambda payload: {**payload, "considered": "7"},
    "unknown-level": lambda payload: _with_spec(
        payload,
        [[payload["specs"][_first_fragmented(payload["specs"])][0][0], "nowhere"]],
    ),
}


@pytest.mark.parametrize("edit", sorted(_BAD_REPORTS))
def test_a_misshapen_report_answers_cold_and_is_counted(scenario, tmp_path, edit):
    # The load's shape check skips every edit but "unknown-level", which
    # names a level the schema does not have, so only the session can reject
    # it.  Either way the warm run derives the report again and counts the
    # bad one.
    cold = _advisor(scenario, tmp_path).recommend().fingerprint
    _edit_reports(
        tmp_path,
        lambda entries: [
            [parts, _BAD_REPORTS[edit](payload), last]
            for parts, payload, last in entries
        ],
    )
    warm = _advisor(scenario, tmp_path)
    assert warm.recommend().fingerprint == cold
    assert warm.cache.stats.store_load_anomalies >= 1


class TestLastParse:
    """A load of unchanged bytes reuses the process's last parse of them,
    and still answers and counts exactly as a full parse does."""

    def test_loads_of_unchanged_bytes_hand_out_their_own_handles(
        self, skewed_scenario, tmp_path
    ):
        _advisor(skewed_scenario, tmp_path).recommend()
        first, first_reports = CacheStore(tmp_path).load()
        parse = repro.engine.store._last_parse
        second, second_reports = CacheStore(tmp_path).load()
        assert repro.engine.store._last_parse is parse
        assert first.keys() == second.keys()
        assert first_reports == second_reports
        first_reports.clear()
        assert len(CacheStore(tmp_path).load()[1]) == 1
        for key, handle in first.items():
            assert handle is not second[key]
            record = handle.decode()
            assert not second[key].decoded
            assert _record_state(second[key].decode()) == _record_state(record)

    def test_a_damaged_group_counts_on_every_load(self, scenario, tmp_path):
        _two_mix_store(scenario, tmp_path)
        members = _read_members(tmp_path)
        del members["c0/keys"]
        _write_members(tmp_path, members)
        store = CacheStore(tmp_path)
        loaded = [set(store.load()[0]) for _ in range(3)]
        assert loaded[0] == loaded[1] == loaded[2] != set()
        assert store.load_stats.corrupt_entries == 3
        cache = EvaluationCache()
        cache.load(CacheStore(tmp_path))
        assert cache.stats.store_corrupt_entries == 1

    def test_a_parse_that_counted_an_anomaly_is_not_kept(
        self, scenario, tmp_path, monkeypatch
    ):
        # A failure that is not a property of the bytes (here one group read
        # raising the SystemError that concurrent npy header parsing raised
        # on CPython 3.11) costs its own load the group, not every later
        # load of the same bytes.
        _advisor(scenario, tmp_path).recommend()
        monkeypatch.setattr(repro.engine.store, "_last_parse", None)
        read_group = repro.engine.store._read_group
        calls = []

        def flaky(read, prefix):
            calls.append(prefix)
            if len(calls) == 1:
                raise SystemError("AST constructor recursion depth mismatch")
            return read_group(read, prefix)

        monkeypatch.setattr(repro.engine.store, "_read_group", flaky)
        first = CacheStore(tmp_path)
        assert first.load()[0] == {}
        assert first.load_stats.corrupt_entries == 1
        assert repro.engine.store._last_parse is None
        second = CacheStore(tmp_path)
        assert second.load()[0]
        assert second.load_stats.corrupt_entries == 0

    def test_a_same_size_edit_with_its_mtime_put_back_is_parsed_again(
        self, scenario, tmp_path
    ):
        _advisor(scenario, tmp_path).recommend()
        path = tmp_path / CANDIDATES_FILENAME
        before = path.stat()
        candidates, reports = CacheStore(tmp_path).load()
        assert len(reports) == 1
        # One digit of the report member changes in place: the zip
        # checksum of that member no longer holds.
        data = bytearray(path.read_bytes())
        offset = data.index(b'"considered": ') + len(b'"considered": ')
        data[offset] = ord("9") if data[offset] != ord("9") else ord("8")
        path.write_bytes(bytes(data))
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = path.stat()
        assert after.st_size == before.st_size
        assert after.st_mtime_ns == before.st_mtime_ns
        store = CacheStore(tmp_path)
        edited, edited_reports = store.load()
        assert edited_reports == {}
        assert set(edited) == set(candidates)
        assert store.load_stats.corrupt_entries == 1

    def test_a_save_between_two_loads_shows_its_entries(self, scenario, tmp_path):
        schema, _, system, config = scenario
        options = EngineOptions(cache_dir=str(tmp_path))
        _advisor(scenario, tmp_path).recommend()
        before = set(CacheStore(tmp_path).load()[0])
        other = random_query_mix(schema, num_classes=6, seed=6)
        session = AdvisorSession(schema, other, system, config, options=options)
        added = {
            session.cache.candidate_key(session.engine.context(specs=[c.spec]), c.spec)
            for c in session.recommend().recommendation.evaluated
        }
        after = set(CacheStore(tmp_path).load()[0])
        assert added and not added & before
        assert after == before | added

    def test_group_arrays_are_read_only(self, skewed_scenario, tmp_path):
        _advisor(skewed_scenario, tmp_path).recommend()
        candidates, _ = CacheStore(tmp_path).load()
        handle = next(iter(candidates.values()))
        group = handle._state
        for name in (
            "metrics",
            "disks",
            "sequential",
            "forced",
            "alloc_disks",
            "attr_counts",
            "attr_codes",
        ):
            assert not getattr(group, name).flags.writeable, name
        with pytest.raises(ValueError):
            group.metrics[0, 0, 0] = 0.0
        # A decoded record holds its own, writeable copies.
        assert handle.decode().columns.metrics.flags.writeable

    def test_two_threads_loading_at_once_get_equal_keys(
        self, scenario, tmp_path, monkeypatch
    ):
        # Two stores with different bytes, loaded in turn by two threads, so
        # the one slot keeps changing hands under them.
        import sys
        import threading

        dirs = [tmp_path / "a", tmp_path / "b"]
        _advisor(scenario, dirs[0]).recommend()
        _two_mix_store(scenario, dirs[1])
        expected = [set(CacheStore(path).load()[0]) for path in dirs]
        assert expected[0] < expected[1]
        monkeypatch.setattr(repro.engine.store, "_last_parse", None)
        barrier = threading.Barrier(2)
        seen = [[], []]

        def load(worker):
            barrier.wait(timeout=30)
            for turn in range(12):
                path = dirs[(worker + turn) % 2]
                seen[worker].append((path, set(CacheStore(path).load()[0])))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=load, args=(w,)) for w in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert [len(loads) for loads in seen] == [12, 12]
        for loads in seen:
            for path, keys in loads:
                assert keys == expected[dirs.index(path)]
