"""Tests for the runtime concurrency sanitizer (``repro.lint.sanitizer``).

These tests toggle the instrumentation explicitly (enable/disable around
each case) so they exercise the sanitizer regardless of whether the suite
itself runs under ``WARLOCK_SANITIZE=1``.
"""

from __future__ import annotations

import inspect
import threading

import pytest

from repro.engine.cache import EvaluationCache
from repro.lint.sanitizer import (
    SanitizerViolation,
    _OwnedLock,
    disable_sanitizer,
    enable_sanitizer,
    install_from_env,
    sanitizer_enabled,
)
from repro import AdvisorConfig, SystemParameters, synthetic_schema
from repro.service.registry import SessionRegistry
from repro.workload.generator import random_query_mix


@pytest.fixture(scope="module")
def scenario():
    schema = synthetic_schema(
        num_dimensions=3,
        levels_per_dimension=3,
        bottom_cardinality=200,
        fact_rows=1_000_000,
        seed=7,
    )
    workload = random_query_mix(schema, num_classes=4, seed=11)
    system = SystemParameters(num_disks=8)
    config = AdvisorConfig(max_fragments=10_000, top_candidates=4)
    return schema, workload, system, config


@pytest.fixture
def sanitized():
    """Enable the sanitizer for one test, restoring the originals after."""
    was_enabled = sanitizer_enabled()
    enable_sanitizer()
    try:
        yield
    finally:
        if not was_enabled:
            disable_sanitizer()


class TestToggle:
    def test_enable_disable_round_trip_restores_methods(self):
        if sanitizer_enabled():
            pytest.skip("suite already runs sanitized; originals not pristine")
        before = EvaluationCache.__dict__["reset_stats"]
        enable_sanitizer()
        assert EvaluationCache.__dict__["reset_stats"] is not before
        assert getattr(
            EvaluationCache.__dict__["reset_stats"], "__wrapped_by_sanitizer__", False
        )
        disable_sanitizer()
        assert EvaluationCache.__dict__["reset_stats"] is before

    def test_a_guarded_method_the_class_does_not_define_raises(self, monkeypatch):
        if sanitizer_enabled():
            pytest.skip("suite already runs sanitized; originals not pristine")
        import repro.lint.sanitizer as sanitizer_module

        before = EvaluationCache.__dict__["reset_stats"]
        monkeypatch.setattr(
            sanitizer_module,
            "_CACHE_METHODS",
            sanitizer_module._CACHE_METHODS + ("no_such_method",),
        )
        try:
            with pytest.raises(AttributeError, match="EvaluationCache.no_such_method"):
                enable_sanitizer()
        finally:
            disable_sanitizer()
        # The methods wrapped before the unknown name are restored.
        assert not sanitizer_enabled()
        assert EvaluationCache.__dict__["reset_stats"] is before

    def test_every_public_cache_method_is_guarded(self):
        import repro.lint.sanitizer as sanitizer_module

        # Plain functions only: properties, static and class methods touch
        # no instance state the guard protects.
        methods = {
            name
            for name, member in vars(EvaluationCache).items()
            if not name.startswith("_") and inspect.isfunction(member)
        }
        assert sorted(methods - set(sanitizer_module._CACHE_METHODS)) == []

    def test_enable_is_idempotent(self, sanitized):
        wrapped = EvaluationCache.__dict__["reset_stats"]
        enable_sanitizer()
        assert EvaluationCache.__dict__["reset_stats"] is wrapped

    def test_install_from_env_honors_the_variable(self):
        if sanitizer_enabled():
            pytest.skip("suite already runs sanitized")
        assert install_from_env({"WARLOCK_SANITIZE": ""}) is False
        assert install_from_env({}) is False
        assert not sanitizer_enabled()
        assert install_from_env({"WARLOCK_SANITIZE": "1"}) is True
        assert sanitizer_enabled()
        disable_sanitizer()


class TestExclusiveEntry:
    def test_single_threaded_use_is_untouched(self, sanitized):
        cache = EvaluationCache()
        cache.reset_stats()
        cache.clear()
        assert cache.stats.lookups == 0

    def test_reentrant_calls_from_the_owner_thread_pass(self, sanitized, monkeypatch):
        # The cache's own methods call each other (candidate -> get/put);
        # model that with a wrapper-level reentrant call.
        cache = EvaluationCache()
        original_clear = EvaluationCache.__dict__["clear"]

        def clearing_reset(self):
            return original_clear.__get__(self, EvaluationCache)()

        # Patch *under* the instrumentation: route one guarded method into
        # another guarded method on the same instance.
        cache.reset_stats()
        cache.clear()  # depth-1 sanity before the nested case
        from repro.lint import sanitizer as san

        guarded = san._guarded(EvaluationCache, clearing_reset)
        monkeypatch.setattr(EvaluationCache, "reset_stats", guarded)
        cache.reset_stats()  # enters reset_stats, then clear: depth 2, no raise

    def test_concurrent_entry_raises_with_both_stacks(self, sanitized, monkeypatch):
        started = threading.Event()
        release = threading.Event()

        def stalled_clear(self):
            started.set()
            assert release.wait(timeout=10)

        from repro.lint import sanitizer as san

        monkeypatch.setattr(
            EvaluationCache, "clear", san._guarded(EvaluationCache, stalled_clear)
        )
        cache = EvaluationCache()
        worker = threading.Thread(target=cache.clear)
        worker.start()
        try:
            assert started.wait(timeout=10)
            with pytest.raises(SanitizerViolation) as excinfo:
                cache.reset_stats()
        finally:
            release.set()
            worker.join(timeout=10)
        message = str(excinfo.value)
        assert "concurrent entry into not-thread-safe EvaluationCache" in message
        assert "--- holder" in message and "--- violator" in message
        assert ".stalled_clear()" in message and ".reset_stats()" in message

    def test_separate_instances_do_not_interfere(self, sanitized):
        started = threading.Event()
        release = threading.Event()

        def stall(cache):
            started.set()
            release.wait(timeout=10)
            cache.clear()

        first, second = EvaluationCache(), EvaluationCache()
        worker = threading.Thread(target=stall, args=(first,))
        worker.start()
        try:
            assert started.wait(timeout=10)
            second.clear()  # a different instance: no violation
        finally:
            release.set()
            worker.join(timeout=10)


class TestRegistryDiscipline:
    def test_ensure_session_without_the_lock_raises(self, sanitized, scenario):
        schema, workload, system, config = scenario
        registry = SessionRegistry()
        entry = registry.register("w", schema, workload, system, config=config)
        with pytest.raises(SanitizerViolation, match="without holding the entry lock"):
            entry.ensure_session()

    def test_ensure_session_under_the_lock_passes(self, sanitized, scenario):
        schema, workload, system, config = scenario
        registry = SessionRegistry()
        entry = registry.register("w", schema, workload, system, config=config)
        with entry.lock:
            session = entry.ensure_session()
        assert session is not None
        with entry.lock:
            entry.session.close()

    def test_collect_evictions_without_registry_lock_raises(self, sanitized):
        registry = SessionRegistry()
        with pytest.raises(SanitizerViolation, match="without the registry lock"):
            registry._collect_evictions(keep="anything")

    def test_the_service_paths_stay_clean(self, sanitized, scenario):
        # The production flows (register/acquire/evict/remove) must be
        # violation-free under instrumentation: the sanitizer changes no
        # behavior on correct programs.
        schema, workload, system, config = scenario
        registry = SessionRegistry(max_sessions=1)
        for name in ("a", "b"):
            registry.register(name, schema, workload, system, config=config)
        for name in ("a", "b"):
            entry = registry.acquire(name)
            with entry.lock:
                entry.ensure_session()
        assert registry.evictions == 1
        registry.register("a", schema, workload, system, config=config)
        assert registry.remove("b") is True
        registry.close()


class TestOwnedLock:
    def test_tracks_owner_across_acquire_release(self):
        lock = _OwnedLock()
        assert not lock.locked()
        assert not lock.owned_by_current_thread()
        with lock:
            assert lock.locked()
            assert lock.owned_by_current_thread()
        assert not lock.locked()
        assert not lock.owned_by_current_thread()

    def test_non_blocking_acquire_contract(self):
        lock = _OwnedLock()
        assert lock.acquire(blocking=False) is True
        assert lock.acquire(blocking=False) is False  # not reentrant
        lock.release()

    def test_ownership_is_per_thread(self):
        lock = _OwnedLock()
        lock.acquire()
        seen = {}

        def probe():
            seen["owned"] = lock.owned_by_current_thread()
            seen["locked"] = lock.locked()

        worker = threading.Thread(target=probe)
        worker.start()
        worker.join(timeout=5)
        lock.release()
        assert seen == {"owned": False, "locked": True}
