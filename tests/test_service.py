"""Tests for the HTTP service layer (repro.service).

The contract under test:

* the registry keeps at most ``max_sessions`` live sessions (LRU eviction,
  idle timeout, in-flight entries never evicted) while warehouses stay
  registered;
* the executor bounds queued work and answers saturation with 503;
* every request type round-trips over HTTP with results identical to the
  in-process ``AdvisorSession.submit()`` (fingerprint parity for recommend);
* SSE streams order progress frames before the result, ending with
  ``completed == total``;
* a client disconnect mid-stream cancels the sweep cooperatively and leaves
  the session cache consistent and warm.
"""

from __future__ import annotations

import json
import math
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import (
    AdvisorConfig,
    AdvisorSession,
    EngineOptions,
    SystemParameters,
    synthetic_schema,
)
from repro.api.requests import (
    CompareRequest,
    EvaluateSpecRequest,
    RecommendRequest,
    SimulateRequest,
    TuneRequest,
)
from repro.errors import ServiceError
from repro.io import example_config
from repro.service import (
    AdvisorServer,
    RequestExecutor,
    SessionRegistry,
    warehouse_inputs_from_dict,
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
def server(scenario):
    schema, workload, system, config = scenario
    srv = AdvisorServer(
        registry=SessionRegistry(max_sessions=4),
        executor=RequestExecutor(workers=4, capacity=16),
    )
    srv.registry.register("main", schema, workload, system, config=config)
    srv.start_in_background()
    yield srv
    srv.stop()


@pytest.fixture(scope="module")
def parity_session(scenario):
    """In-process twin of the served "main" warehouse (parity oracle)."""
    schema, workload, system, config = scenario
    return AdvisorSession(schema, workload, system, config)


def _large_warehouse():
    """A 7-dimension, 40-class warehouse whose cold sweep runs 8 chunks.

    The sweep takes about 45 ms on a 2-vCPU host, about ten times the
    deadline and disconnect windows the races below depend on.
    """
    schema = synthetic_schema(
        num_dimensions=7,
        levels_per_dimension=3,
        bottom_cardinality=400,
        fact_rows=30_000_000,
    )
    workload = random_query_mix(schema, num_classes=40, seed=1)
    config = AdvisorConfig(max_fragments=30_000, max_fragmentation_dimensions=3)
    return schema, workload, SystemParameters(num_disks=64), config


def http_json(server, method, path, payload=None, timeout=60):
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(server.url + path, data=data, method=method)
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, json.loads(response.read())


def http_error(server, method, path, payload=None):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        http_json(server, method, path, payload)
    error = excinfo.value
    return error.code, json.loads(error.read())


def http_sse(server, path, payload, timeout=120):
    """POST and parse an SSE stream into ``[(event, data), ...]``."""
    request = urllib.request.Request(
        server.url + path,
        data=json.dumps(payload).encode(),
        method="POST",
        headers={"Accept": "text/event-stream"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        assert response.headers["Content-Type"] == "text/event-stream"
        raw = response.read().decode()
    frames = []
    for block in raw.split("\n\n"):
        if not block.strip():
            continue
        lines = dict(line.split(": ", 1) for line in block.splitlines())
        frames.append((lines["event"], json.loads(lines["data"])))
    return frames


class TestRegistry:
    def test_unknown_warehouse_is_a_404(self, scenario):
        registry = SessionRegistry()
        with pytest.raises(ServiceError) as excinfo:
            registry.acquire("ghost")
        assert excinfo.value.status == 404

    def test_lru_cap_closes_the_coldest_session(self, scenario):
        schema, workload, system, config = scenario
        registry = SessionRegistry(max_sessions=2)
        for name in ("a", "b", "c"):
            registry.register(name, schema, workload, system, config=config)
        for name in ("a", "b", "c"):
            entry = registry.acquire(name)
            with entry.lock:
                entry.ensure_session()
        # "a" is the least recently used of the three: evicted, but still
        # registered — a later acquire simply rebuilds its session.
        assert registry.live_sessions == 2
        assert set(registry.names()) == {"a", "b", "c"}
        assert registry.evictions == 1
        entry_a = registry.acquire("a")
        assert entry_a.session is None
        with entry_a.lock:
            entry_a.ensure_session()
        assert registry.live_sessions == 2  # now "b" went

    def test_in_flight_sessions_are_never_evicted(self, scenario):
        schema, workload, system, config = scenario
        registry = SessionRegistry(max_sessions=1)
        for name in ("busy", "idle", "next"):
            registry.register(name, schema, workload, system, config=config)
        busy = registry.acquire("busy")
        with busy.lock:  # request in flight
            busy.ensure_session()
            idle = registry.acquire("idle")
            with idle.lock:
                idle.ensure_session()
            # Both live although the cap is 1: the busy one is untouchable.
            assert registry.live_sessions == 2
            registry.acquire("next")
            assert busy.session is not None
            assert idle.session is None  # the idle one was the victim

    def test_idle_timeout_purges_on_access(self, scenario):
        schema, workload, system, config = scenario
        now = [0.0]
        registry = SessionRegistry(idle_timeout=10.0, clock=lambda: now[0])
        registry.register("old", schema, workload, system, config=config)
        registry.register("new", schema, workload, system, config=config)
        for name in ("old", "new"):
            entry = registry.acquire(name)
            with entry.lock:
                entry.ensure_session()
        now[0] = 5.0
        new = registry.acquire("new")  # refreshes "new" only
        assert registry.live_sessions == 2
        now[0] = 12.0  # "old" idle 12s > 10s, "new" idle 7s
        registry.acquire("new")
        assert registry.live_sessions == 1
        assert new.session is not None
        assert registry.acquire("old").session is None

    def test_register_replaces_and_remove_drops(self, scenario):
        schema, workload, system, config = scenario
        registry = SessionRegistry()
        registry.register("w", schema, workload, system, config=config)
        entry = registry.acquire("w")
        with entry.lock:
            entry.ensure_session()
        replaced = registry.register("w", schema, workload, system, config=config)
        assert replaced.session is None  # the old session was closed
        assert registry.remove("w") is True
        assert registry.remove("w") is False
        with pytest.raises(ServiceError):
            registry.acquire("w")

    def test_eviction_releases_the_entry_lock(self, scenario):
        # Regression: eviction acquires the victim's entry lock (non-blocking)
        # so no in-flight request can race the close; the lock must be
        # released again afterwards, not leaked.
        schema, workload, system, config = scenario
        registry = SessionRegistry(max_sessions=1)
        for name in ("old", "new"):
            registry.register(name, schema, workload, system, config=config)
        old = registry.acquire("old")
        with old.lock:
            old.ensure_session()
        new = registry.acquire("new")
        with new.lock:
            new.ensure_session()
        assert old.session is None  # evicted by the cap
        assert registry.evictions == 1
        assert not old.lock.locked()  # the eviction path released it
        # The evicted warehouse is still usable: rebuild its session.
        entry = registry.acquire("old")
        with entry.lock:
            entry.ensure_session()
        assert entry.session is not None

    def test_replace_waits_for_in_flight_request(self, scenario):
        # Regression: register() used to close the replaced session without
        # the entry lock, racing a worker mid-submit on that session.  It now
        # blocks until the in-flight request releases the lock.
        schema, workload, system, config = scenario
        registry = SessionRegistry()
        registry.register("w", schema, workload, system, config=config)
        entry = registry.acquire("w")
        replaced = threading.Event()

        def replace():
            registry.register("w", schema, workload, system, config=config)
            replaced.set()

        with entry.lock:  # a request in flight on the old entry
            entry.ensure_session()
            worker = threading.Thread(target=replace)
            worker.start()
            # The replacement is visible immediately (new entry in the map)
            # but the old session's close must wait for our lock.
            assert not replaced.wait(timeout=0.2)
        worker.join(timeout=5)
        assert replaced.is_set()

    def test_remove_waits_for_in_flight_request(self, scenario):
        # Regression: remove() used to close the session without the entry
        # lock; it now waits for the in-flight request to finish.
        schema, workload, system, config = scenario
        registry = SessionRegistry()
        registry.register("w", schema, workload, system, config=config)
        entry = registry.acquire("w")
        removed = threading.Event()

        def remove():
            registry.remove("w")
            removed.set()

        with entry.lock:
            entry.ensure_session()
            worker = threading.Thread(target=remove)
            worker.start()
            assert not removed.wait(timeout=0.2)
        worker.join(timeout=5)
        assert removed.is_set()
        assert entry.session is None

    def test_describe_is_json_ready(self, scenario):
        schema, workload, system, config = scenario
        registry = SessionRegistry(max_sessions=3, idle_timeout=60.0)
        registry.register("w", schema, workload, system, config=config)
        snapshot = registry.describe()
        json.dumps(snapshot)  # serializable as-is
        assert snapshot["max_sessions"] == 3
        assert snapshot["warehouses"][0]["name"] == "w"
        assert snapshot["warehouses"][0]["live"] is False


class TestExecutor:
    def test_jobs_run_and_return_results(self):
        executor = RequestExecutor(workers=2, capacity=8)
        jobs = [executor.submit(lambda k=k: k * k) for k in range(6)]
        assert executor.drain(timeout=10)
        assert [job.outcome() for job in jobs] == [0, 1, 4, 9, 16, 25]
        executor.shutdown()

    def test_errors_propagate_through_outcome(self):
        executor = RequestExecutor(workers=1, capacity=4)

        def boom():
            raise ValueError("exploded")

        job = executor.submit(boom)
        assert job.wait(timeout=10)
        with pytest.raises(ValueError, match="exploded"):
            job.outcome()
        executor.shutdown()

    def test_saturation_answers_503_without_blocking(self):
        executor = RequestExecutor(workers=1, capacity=1)
        release = threading.Event()
        running = threading.Event()

        def block():
            running.set()
            return release.wait()

        blocker = executor.submit(block)
        assert running.wait(timeout=10)  # the worker holds it, queue is empty
        queued = executor.submit(lambda: "queued")  # fills the queue
        with pytest.raises(ServiceError) as excinfo:
            executor.submit(lambda: "rejected")
        assert excinfo.value.status == 503
        release.set()
        assert executor.drain(timeout=10)
        assert blocker.outcome() is True
        assert queued.outcome() == "queued"
        executor.shutdown()

    def test_shutdown_rejects_new_work(self):
        executor = RequestExecutor(workers=1)
        executor.start()
        executor.shutdown()
        with pytest.raises(ServiceError) as excinfo:
            executor.submit(lambda: None)
        assert excinfo.value.status == 503

    def test_on_done_hook_fires_after_completion(self):
        executor = RequestExecutor(workers=1)
        fired = threading.Event()
        job = executor.submit(lambda: 7, on_done=fired.set)
        assert fired.wait(timeout=10)
        assert job.done and job.outcome() == 7
        executor.shutdown()

    def test_construction_shares_the_malloc_arena_before_workers_start(
        self, monkeypatch
    ):
        import repro.service.executor as executor_module

        started = []
        monkeypatch.setattr(
            executor_module,
            "share_main_malloc_arena",
            lambda: started.append(threading.active_count()),
        )
        before = threading.active_count()
        executor = RequestExecutor(workers=2)
        assert started == [before]
        executor.shutdown()

    @pytest.mark.parametrize("shared", [False, True])
    def test_a_worker_allocates_from_the_main_arena_once_shared(self, shared):
        """glibc's ``malloc_stats`` lists one arena per thread unless shared."""
        import os
        import subprocess
        import sys

        if "CS_GNU_LIBC_VERSION" not in getattr(os, "confstr_names", {}):
            pytest.skip("malloc arenas are a glibc feature")
        script = "\n".join(
            [
                "import ctypes, sys, threading",
                "from repro.service.executor import share_main_malloc_arena",
                f"assert share_main_malloc_arena() if {shared} else True",
                "held = []",
                # Over pymalloc's 512 bytes and under mmap's threshold: a
                # malloc from the thread's arena.
                "worker = threading.Thread(target=lambda: held.append(bytearray(20000)))",
                "worker.start(); worker.join()",
                "ctypes.CDLL(None).malloc_stats()",
            ]
        )
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, timeout=120, check=True,
        )
        arenas = [line for line in done.stderr.splitlines() if line.startswith("Arena ")]
        assert len(arenas) == (1 if shared else 2), done.stderr


class TestWarehouseRegistration:
    def test_dataset_shorthand_builds_the_bundled_inputs(self):
        schema, workload, system, config, engine = warehouse_inputs_from_dict(
            {"dataset": "apb1", "scale": 0.05, "disks": 16}
        )
        assert "apb1" in schema.name
        assert len(workload) > 0
        assert system.num_disks == 16
        assert config is None and engine == {}

    def test_advisor_and_engine_blocks_are_validated(self):
        _, _, _, config, engine = warehouse_inputs_from_dict(
            {
                "dataset": "retail",
                "advisor": {"top_candidates": 5},
                "engine": {"cache": False, "vectorize": True},
            }
        )
        assert config.top_candidates == 5
        assert engine == {"cache": False, "vectorize": True}
        with pytest.raises(ServiceError, match="advisor block"):
            warehouse_inputs_from_dict(
                {"dataset": "apb1", "advisor": {"not_a_knob": 1}}
            )

    def test_unknown_dataset_is_rejected(self):
        with pytest.raises(ServiceError, match="unknown dataset"):
            warehouse_inputs_from_dict({"dataset": "tpch"})


class TestHTTPEndpoints:
    def test_health_and_warehouse_listing(self, server):
        status, health = http_json(server, "GET", "/healthz")
        assert status == 200 and health["status"] == "ok"
        status, listing = http_json(server, "GET", "/warehouses")
        assert [row["name"] for row in listing["warehouses"]] == ["main"]

    def test_unknown_route_and_method(self, server):
        code, body = http_error(server, "GET", "/nope")
        assert code == 404
        code, _ = http_error(server, "POST", "/warehouses/main")
        assert code == 405
        # The submit path exists for every method: wrong verb is 405, not 404.
        code, _ = http_error(server, "GET", "/warehouses/main/submit")
        assert code == 405

    def test_unknown_warehouse_is_404(self, server):
        code, body = http_error(
            server, "POST", "/warehouses/ghost/submit", {"kind": "recommend"}
        )
        assert code == 404
        assert "ghost" in body["error"]

    def test_malformed_bodies_are_400(self, server):
        code, body = http_error(
            server, "POST", "/warehouses/main/submit", {"kind": "teleport"}
        )
        assert code == 400 and "teleport" in body["error"]
        code, body = http_error(
            server, "POST", "/warehouses/main/submit",
            {"kind": "tune", "parameter": "disks"},
        )
        assert code == 400 and "invalid request body" in body["error"]

    @pytest.mark.parametrize(
        "method, path, body",
        [
            ("POST", "/warehouses/main/submit", b"[" * 200_000 + b"]" * 200_000),
            ("PUT", "/warehouses/shop", b"[" * 100_000 + b"]" * 100_000),
            ("PUT", "/warehouses/shop", b'{"dataset": "\xff"}'),
        ],
        ids=["submit-nested-200000", "register-nested-100000", "register-not-utf8"],
    )
    def test_unparseable_bodies_are_400(self, server, method, path, body):
        request = urllib.request.Request(server.url + path, data=body, method=method)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=60)
        assert excinfo.value.code == 400
        assert "invalid JSON body" in json.loads(excinfo.value.read())["error"]
        status, _ = http_json(server, "GET", "/healthz")
        assert status == 200

    def test_register_and_delete_over_http(self, server):
        status, body = http_json(
            server, "PUT", "/warehouses/shop",
            {"dataset": "apb1", "scale": 0.02, "disks": 8},
        )
        assert status == 200
        assert body["registered"]["name"] == "shop"
        status, body = http_json(server, "DELETE", "/warehouses/shop")
        assert status == 200 and body["removed"] is True
        code, _ = http_error(server, "DELETE", "/warehouses/shop")
        assert code == 404

    def test_register_with_a_removed_engine_option_is_400(self, server):
        # A removed vectorize mode, the removed sweep-distribution option
        # (which would have bound a listener on the server host) and the
        # removed worker-count option.
        for engine in (
            {"vectorize": "classes"},
            {"fabric": "127.0.0.1:0"},
            {"jobs": 2},
        ):
            code, body = http_error(
                server, "PUT", "/warehouses/shop",
                {"dataset": "apb1", "scale": 0.02, "disks": 8, "engine": engine},
            )
            [key] = engine
            assert code == 400 and key in body["error"], body
            code, _ = http_error(server, "DELETE", "/warehouses/shop")
            assert code == 404

    @pytest.mark.parametrize(
        "payload, key",
        [
            ({"dataset": "apb1", "scale": "abc"}, "scale"),
            ({"dataset": "apb1", "scale": None}, "scale"),
            ({"dataset": "apb1", "disks": "x"}, "disks"),
            ({"dataset": "apb1", "skew": "x"}, "skew"),
            ({"schema": "x", "workload": []}, "schema"),
            ({"schema": example_config()["schema"], "workload": "x"}, "workload"),
            ({"schema": example_config()["schema"], "workload": ["x"]}, "workload"),
            ({**example_config(), "system": {"num_disks": "x"}}, "num_disks"),
            ({"dataset": "apb1", "scale": math.nan}, "scale"),
            ({"dataset": "apb1", "scale": math.inf}, "scale"),
            ({"dataset": "retail", "scale": math.nan}, "scale"),
            ({"dataset": "apb1", "scale": 0.02, "skew": math.nan}, "skew"),
            ({"dataset": "apb1", "scale": 0.02, "skew": math.inf}, "skew"),
            ({"dataset": "apb1", "disks": 64.7}, "disks"),
            ({"dataset": "apb1", "disks": True}, "disks"),
            ({**example_config(), "system": {"num_disks": 16.9}}, "num_disks"),
            *(
                ({"dataset": "apb1", "scale": 0.02, "advisor": {key: value}}, key)
                for key, value in (
                    ("top_candidates", 2.5),
                    ("max_fragments", True),
                    ("include_baseline", "no"),
                    ("max_fragmentation_dimensions", 1.5),
                )
            ),
        ],
        ids=[
            "scale-string", "scale-null", "disks-string", "skew-string",
            "schema-string", "workload-string", "workload-entry-string",
            "num-disks-string", "scale-nan", "scale-inf", "retail-scale-nan",
            "skew-nan", "skew-inf", "disks-fraction", "disks-bool",
            "num-disks-fraction", "advisor-top-candidates-fraction", "advisor-max-bool",
            "advisor-baseline-string", "advisor-dimensions-fraction",
        ],
    )
    def test_register_with_a_wrong_typed_field_is_400(self, server, payload, key):
        code, body = http_error(server, "PUT", "/warehouses/shop", payload)
        assert code == 400 and key in body["error"], body
        code, _ = http_error(server, "DELETE", "/warehouses/shop")
        assert code == 404

    @pytest.mark.parametrize(
        "payload",
        [
            {"dataset": "apb1", "scale": 0.02, "disks": 10**30},
            {"dataset": "apb1", "scale": 0.02, "disks": 2**64},
            {**example_config(), "system": {"num_disks": 10**30}},
        ],
        ids=["dataset-disks", "dataset-disks-2e64", "config-num-disks"],
    )
    def test_register_with_an_out_of_range_disk_count_is_400(self, server, payload):
        # Checked when the system parameters are built, before any per-disk
        # state is sized by the count.
        code, body = http_error(server, "PUT", "/warehouses/shop", payload)
        assert code == 400 and "num_disks" in body["error"], body
        assert body["type"] == "StorageError"
        code, _ = http_error(server, "DELETE", "/warehouses/shop")
        assert code == 404

    @pytest.mark.parametrize("length", ["-5", "abc"])
    def test_a_malformed_content_length_is_400(self, server, length):
        # The request line is already read, so the server can answer, and
        # must not hand a negative length to the body read.
        with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
            sock.sendall(
                b"POST /warehouses/main/submit HTTP/1.1\r\n"
                b"Host: localhost\r\n"
                + f"Content-Length: {length}\r\n\r\n".encode()
            )
            response = b""
            while chunk := sock.recv(4096):
                response += chunk
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 "), response
        assert "Content-Length" in json.loads(body)["error"]

    def test_register_with_a_non_finite_budget_is_400(self, server, tmp_path):
        payload = {
            "dataset": "apb1",
            "scale": 0.02,
            "disks": 8,
            "engine": {"cache_dir": str(tmp_path), "cache_max_mb": "BUDGET"},
        }
        # 1e400 parses as inf: a budget the engine cannot turn into bytes.
        body = json.dumps(payload).replace('"BUDGET"', "1e400")
        request = urllib.request.Request(
            server.url + "/warehouses/shop", data=body.encode(), method="PUT"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=60)
        assert excinfo.value.code == 400
        assert "finite byte count" in json.loads(excinfo.value.read())["error"]
        code, _ = http_error(server, "DELETE", "/warehouses/shop")
        assert code == 404

    @pytest.mark.parametrize(
        "payload",
        [
            {"kind": "tune", "study": "disks", "settings": 5},
            {"kind": "tune", "study": "disks", "settings": ["x"]},
            {"kind": "tune", "study": "prefetch", "settings": 3},
            {"kind": "tune", "study": "bitmaps", "settings": 7},
            {"kind": "tune", "study": "weights", "settings": {"a": 3}},
            # The architecture study compares its two architectures and
            # takes no settings.
            {"kind": "tune", "study": "architecture", "settings": [1, 2]},
            {"kind": "simulate", "seed": "x"},
            {"kind": "simulate", "seed": -1},
            {"kind": "simulate", "queries_per_class": 1.5},
            {"kind": "evaluate_spec", "spec": 5},
            {"kind": "evaluate_spec", "spec": {"attributes": [{"dimension": "time"}]}},
            {
                "kind": "evaluate_spec",
                "spec": {"attributes": []},
                "bitmap_exclude": [["a"]],
            },
            {"kind": "compare", "specs": [5]},
            {"kind": "compare", "specs": [{"attributes": []}], "baseline_spec": 3},
            # Weights the "main" mix's class Q1 cannot take (an infinite or
            # NaN one reaches the server as a JSON Infinity or NaN token),
            # and a class the mix does not have.
            {"kind": "tune", "study": "weights", "settings": {"a": {"Q1": math.inf}}},
            {"kind": "tune", "study": "weights", "settings": {"a": {"Q1": math.nan}}},
            {"kind": "tune", "study": "weights", "settings": {"a": {"ghost": 2.0}}},
            # A spec object must name its attributes; {"attributes": []} is
            # the unfragmented spec.
            {"kind": "evaluate_spec", "spec": {}},
            {
                "kind": "evaluate_spec",
                "spec": {"attribute": [{"dimension": "time", "level": "month"}]},
            },
            {"kind": "compare", "specs": [{"attributes": []}], "baseline_spec": {}},
        ],
    )
    def test_malformed_typed_request_is_400(self, server, payload):
        code, body = http_error(server, "POST", "/warehouses/main/submit", payload)
        assert code == 400, body
        status, served = http_json(
            server, "POST", "/warehouses/main/submit", {"kind": "recommend"}
        )
        assert status == 200 and served["kind"] == "recommend"

    @pytest.mark.parametrize("disks", [10**30, 2**64])
    def test_tune_with_an_out_of_range_disk_count_is_400(self, server, disks):
        payload = {"kind": "tune", "study": "disks", "settings": [8, disks]}
        code, body = http_error(server, "POST", "/warehouses/main/submit", payload)
        assert code == 400 and "num_disks" in body["error"], body
        assert body["type"] == "StorageError"


def _wire_requests(parity_session):
    """One request of each of the five kinds."""
    spec = parity_session.recommend().best.spec
    return [
        RecommendRequest(),
        EvaluateSpecRequest(spec=spec),
        CompareRequest(specs=(spec,)),
        TuneRequest(study="disks", spec=spec, settings=(8, 16)),
        SimulateRequest(queries_per_class=2, seed=7),
    ]


class TestHTTPRoundTrip:
    """Every request type over HTTP == the in-process submit(), bit for bit."""

    def test_all_five_request_types_round_trip(self, server, parity_session):
        for request in _wire_requests(parity_session):
            payload = request.to_dict()
            status, body = http_json(
                server, "POST", "/warehouses/main/submit", payload
            )
            assert status == 200, payload["kind"]
            assert body["kind"] == payload["kind"]
            expected = parity_session.submit(request).to_dict()
            assert body["result"] == json.loads(json.dumps(expected)), payload["kind"]

    def test_recommend_fingerprint_matches_in_process(self, server, parity_session):
        _, body = http_json(
            server, "POST", "/warehouses/main/submit", {"kind": "recommend"}
        )
        assert body["fingerprint"] == parity_session.recommend().fingerprint


class TestSSEStreaming:
    def test_stream_orders_progress_then_result_then_done(self, server, parity_session):
        frames = http_sse(
            server, "/warehouses/main/submit?stream=1", {"kind": "recommend"}
        )
        kinds = [kind for kind, _ in frames]
        assert kinds[-2:] == ["result", "done"]
        assert set(kinds[:-2]) <= {"progress"}
        progress = [data for kind, data in frames if kind == "progress"]
        assert progress, "a streamed request must report progress"
        completed = [p["completed"] for p in progress]
        assert completed == sorted(completed)
        assert progress[-1]["completed"] == progress[-1]["total"]
        result = dict(frames)["result"]
        assert result["fingerprint"] == parity_session.recommend().fingerprint

    def test_composite_tune_streams_both_sweeps(self, server):
        frames = http_sse(
            server,
            "/warehouses/main/submit?stream=1",
            {"kind": "tune", "study": "disks", "settings": [8, 16]},
        )
        progress = [data for kind, data in frames if kind == "progress"]
        sweeps = sorted({(p["sweep"], p["num_sweeps"]) for p in progress})
        # Sweep 1/2 may answer from the answer memo in one frame, but both
        # composite phases must be reported and the study must end complete.
        assert sweeps == [(1, 2), (2, 2)]
        last = progress[-1]
        assert last["phase"] == "study"
        assert last["completed"] == last["total"] == 2

    def test_stream_reports_errors_as_sse_frames(self, server):
        frames = http_sse(
            server,
            "/warehouses/main/submit?stream=1",
            {"kind": "tune", "study": "weights", "settings": None},
        )
        kinds = [kind for kind, _ in frames]
        assert kinds[-2:] == ["error", "done"]
        assert "weights" in dict(frames)["error"]["error"]


def http_raw(server, path, payload, headers=None, timeout=60):
    """POST and return the raw response body."""
    request = urllib.request.Request(
        server.url + path,
        data=json.dumps(payload).encode(),
        method="POST",
        headers=headers or {},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.read()


def _frame_data(raw: bytes, event: str) -> bytes:
    """The data of the first ``event`` frame of a raw SSE stream."""
    for block in raw.split(b"\n\n"):
        lines = dict(line.split(b": ", 1) for line in block.splitlines())
        if lines.get(b"event") == event.encode():
            return lines[b"data"]
    raise AssertionError(f"no {event} frame in the stream")


class TestResponseEncoding:
    """A response is encoded on a worker, once per answer, and byte for byte
    as ``json.dumps`` of the response object."""

    @staticmethod
    def _server(scenario, names):
        schema, workload, system, config = scenario
        server = AdvisorServer(
            registry=SessionRegistry(),
            executor=RequestExecutor(workers=2, capacity=8),
        )
        for name in names:
            server.registry.register(name, schema, workload, system, config=config)
        return server.start_in_background()

    def test_a_fresh_recommendation_is_fingerprinted_on_a_worker(
        self, scenario, monkeypatch
    ):
        import repro.engine

        threads = []
        fingerprint = repro.engine.recommendation_fingerprint

        def recording(recommendation):
            threads.append(threading.current_thread().name)
            return fingerprint(recommendation)

        monkeypatch.setattr(repro.engine, "recommendation_fingerprint", recording)
        server = self._server(scenario, ("plain", "streamed"))
        try:
            http_json(server, "POST", "/warehouses/plain/submit", {"kind": "recommend"})
            http_sse(server, "/warehouses/streamed/submit?stream=1", {"kind": "recommend"})
        finally:
            server.stop()
        assert len(threads) == 2
        assert all(name.startswith("advisor-request-worker-") for name in threads), threads

    def test_a_memoized_recommendation_is_encoded_once(self, scenario, monkeypatch):
        from repro.api import RecommendResult

        calls = []
        to_dict = RecommendResult.to_dict

        def counting(result, *args, **kwargs):
            calls.append(result)
            return to_dict(result, *args, **kwargs)

        monkeypatch.setattr(RecommendResult, "to_dict", counting)
        server = self._server(scenario, ("main",))
        try:
            first = http_raw(server, "/warehouses/main/submit", {"kind": "recommend"})
            second = http_raw(server, "/warehouses/main/submit", {"kind": "recommend"})
        finally:
            server.stop()
        assert second == first
        assert len(calls) == 1

    def test_a_warm_evaluation_is_encoded_once(self, scenario, parity_session, monkeypatch):
        from repro.core import FragmentationCandidate

        calls = []
        to_dict = FragmentationCandidate.to_dict

        def counting(candidate, *args, **kwargs):
            calls.append(candidate)
            return to_dict(candidate, *args, **kwargs)

        monkeypatch.setattr(FragmentationCandidate, "to_dict", counting)
        payload = EvaluateSpecRequest(parity_session.recommend().best.spec).to_dict()
        server = self._server(scenario, ("main",))
        try:
            first = http_raw(server, "/warehouses/main/submit", payload)
            second = http_raw(server, "/warehouses/main/submit", payload)
        finally:
            server.stop()
        assert second == first
        assert len(calls) == 1

    def test_bodies_and_result_frames_are_the_response_json(self, server, parity_session):
        for request in _wire_requests(parity_session):
            payload = request.to_dict()
            result = parity_session.submit(request)
            response = {"kind": payload["kind"], "result": result.to_dict()}
            if payload["kind"] == "recommend":
                response["fingerprint"] = result.fingerprint
            body = http_raw(server, "/warehouses/main/submit", payload)
            assert body == json.dumps(response).encode(), payload["kind"]
            stream = http_raw(
                server,
                "/warehouses/main/submit?stream=1",
                payload,
                headers={"Accept": "text/event-stream"},
            )
            del response["kind"]
            assert _frame_data(stream, "result") == json.dumps(response).encode()


class TestDisconnectCancellation:
    def test_disconnect_cancels_the_sweep_and_leaves_the_cache_warm(self):
        schema, workload, system, config = _large_warehouse()
        server = AdvisorServer(
            registry=SessionRegistry(),
            executor=RequestExecutor(workers=2, capacity=8),
        )
        # A dedicated large warehouse: its session is cold, so the streamed
        # sweep has 7 of its 8 chunks left when the client hangs up.
        server.registry.register(
            "dropped", schema, workload, system, config=config,
            options=EngineOptions(),
        )
        server.start_in_background()
        try:
            payload = json.dumps({"kind": "recommend"}).encode()
            with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
                sock.sendall(
                    b"POST /warehouses/dropped/submit?stream=1 HTTP/1.1\r\n"
                    b"Host: localhost\r\n"
                    b"Content-Type: application/json\r\n"
                    + f"Content-Length: {len(payload)}\r\n\r\n".encode()
                    + payload
                )
                # Wait for the first progress frame — the sweep is live now —
                # then hang up without reading the rest.
                buffer = b""
                while b"event: progress" not in buffer:
                    chunk = sock.recv(4096)
                    assert chunk, "stream closed before any progress frame"
                    buffer += chunk
            # The EOF watchdog flips the token; the worker stops at the next
            # chunk boundary and the executor drains without finishing the
            # sweep.
            assert server.executor.drain(timeout=60)
            deadline = time.monotonic() + 10
            while server.cancelled == 0 and time.monotonic() < deadline:
                time.sleep(0.05)
            assert server.cancelled >= 1
            assert server.served == 0  # the request never completed

            # The abandoned sweep's completed chunks persist: the session
            # cache is non-empty and a retry completes with the exact
            # fingerprint of an untouched in-process advisor.
            entry = server.registry.acquire("dropped")
            assert entry.session is not None
            assert len(entry.session.cache) > 0
            status, body = http_json(
                server, "POST", "/warehouses/dropped/submit", {"kind": "recommend"}
            )
            assert status == 200
            oracle = AdvisorSession(schema, workload, system, config)
            assert body["fingerprint"] == oracle.recommend().fingerprint
        finally:
            server.stop()


def _status(server, name, statuses) -> None:
    """POST a recommend; record its HTTP status, or None without a response."""
    try:
        statuses[name] = http_json(
            server, "POST", f"/warehouses/{name}/submit", {"kind": "recommend"}
        )[0]
    except urllib.error.HTTPError as error:
        statuses[name] = error.code
    except OSError:  # the connection closed without a response
        statuses[name] = None


class TestShutdown:
    def test_stop_answers_every_accepted_request_then_closes_sessions(self):
        from repro import retail_query_mix, retail_schema

        server = AdvisorServer(executor=RequestExecutor(workers=1))
        entries = [
            server.registry.register(
                name, retail_schema(scale=1.0), retail_query_mix(),
                SystemParameters(num_disks=16),
            )
            for name in "abc"
        ]
        server.start_in_background()
        statuses = {}
        clients = [
            threading.Thread(target=_status, args=(server, name, statuses))
            for name in "abc"
        ]
        stopper = threading.Thread(target=server.stop, kwargs={"timeout": 60})

        def wait_for(condition) -> None:
            deadline = time.monotonic() + 30
            while not condition():
                assert time.monotonic() < deadline
                time.sleep(0.01)

        # The one worker takes a's recommend and waits for a's entry lock,
        # so b's and c's stay queued until stop() is under way.
        with entries[0].lock:
            clients[0].start()
            wait_for(lambda: server.executor.pending == 1)
            for client in clients[1:]:
                client.start()
            wait_for(lambda: server.executor.pending == 3)
            stopper.start()
            wait_for(lambda: server.executor._shutdown)
            time.sleep(0.05)
        stopper.join(60)
        assert not stopper.is_alive()
        assert not any(worker.is_alive() for worker in server.executor._threads)
        assert server.registry.live_sessions == 0
        for client in clients:
            client.join(60)
        # a ran to its answer; b and c had not started and were refused.
        assert statuses == {"a": 200, "b": 503, "c": 503}


class TestEvictionOverHTTP:
    def test_live_sessions_stay_capped_across_warehouses(self, scenario):
        schema, workload, system, config = scenario
        server = AdvisorServer(
            registry=SessionRegistry(max_sessions=2),
            executor=RequestExecutor(workers=2, capacity=8),
        )
        for name in ("w1", "w2", "w3"):
            server.registry.register(name, schema, workload, system, config=config)
        server.start_in_background()
        try:
            spec_payload = {"kind": "recommend"}
            for name in ("w1", "w2", "w3"):
                status, _ = http_json(
                    server, "POST", f"/warehouses/{name}/submit", spec_payload
                )
                assert status == 200
            _, listing = http_json(server, "GET", "/warehouses")
            assert listing["live_sessions"] <= 2
            assert len(listing["warehouses"]) == 3  # registrations all survive
            assert listing["evictions"] >= 1
        finally:
            server.stop()


class TestRequestDeadlines:
    """Per-request deadlines (``--request-timeout``): queue wait plus
    execution share one budget; overruns answer 504, mid-sweep overruns trip
    the cooperative cancel token at the next chunk boundary."""

    def test_without_timeout_jobs_carry_no_deadline(self):
        executor = RequestExecutor(workers=1)
        job = executor.submit(lambda: "ok")
        assert job.wait(timeout=10)
        assert job.deadline is None and not job.timed_out
        assert job.outcome() == "ok"
        executor.shutdown()

    def test_invalid_timeout_is_rejected(self):
        with pytest.raises(ServiceError):
            RequestExecutor(workers=1, timeout=0.0)
        with pytest.raises(ServiceError):
            RequestExecutor(workers=1, timeout=-3.0)

    def test_deadline_expires_queued_jobs_with_504(self):
        executor = RequestExecutor(workers=1, capacity=4, timeout=0.2)
        release = threading.Event()
        running = threading.Event()

        def block():
            running.set()
            return release.wait()

        blocker = executor.submit(block)
        assert running.wait(timeout=10)
        queued = executor.submit(lambda: "late")
        time.sleep(0.4)  # the deadline lapses while the job sits queued
        release.set()
        assert queued.wait(timeout=10)
        assert queued.timed_out
        with pytest.raises(ServiceError) as excinfo:
            queued.outcome()
        assert excinfo.value.status == 504
        assert "while queued" in str(excinfo.value)
        assert blocker.outcome() is True  # the running job itself survived
        executor.shutdown()

    def test_deadline_trips_the_cancel_token_mid_execution(self):
        from repro.api.progress import CancellationToken
        from repro.errors import EvaluationCancelled

        executor = RequestExecutor(workers=1, timeout=0.1)
        token = CancellationToken()

        def slow_sweep():
            for _ in range(500):
                if token.cancelled:
                    raise EvaluationCancelled("chunk boundary observed cancel")
                time.sleep(0.01)
            return "never finishes in time"

        job = executor.submit(slow_sweep, cancel=token)
        assert job.wait(timeout=10)
        assert job.timed_out
        with pytest.raises(EvaluationCancelled):
            job.outcome()
        executor.shutdown()

    def test_http_recommend_answers_504_on_deadline(self):
        from repro.service import AdvisorServer

        # The small module scenario is warm by now and can finish inside the
        # 5 ms deadline; a fresh large warehouse's cold sweep cannot.
        schema, workload, system, config = _large_warehouse()
        srv = AdvisorServer(
            registry=SessionRegistry(max_sessions=2),
            executor=RequestExecutor(workers=1, capacity=4, timeout=0.005),
        )
        srv.registry.register("slow", schema, workload, system, config=config)
        srv.start_in_background()
        try:
            code, body = http_error(
                srv, "POST", "/warehouses/slow/submit", {"kind": "recommend"}
            )
        finally:
            srv.stop()
        assert code == 504
        assert "error" in body


class TestHealthzStoreCounters:
    """GET /healthz surfaces the aggregated store robustness counters."""

    def test_store_block_present_and_zero_on_clean_sessions(self, server):
        status, health = http_json(server, "GET", "/healthz")
        assert status == 200
        assert set(health["store"]) == {
            "salt_mismatches",
            "corrupt_entries",
            "fallback_loads",
        }
        assert all(isinstance(v, int) for v in health["store"].values())

    def test_corrupted_store_shows_up_in_healthz(self, scenario, server, tmp_path):
        from repro.engine.store import CANDIDATES_FILENAME

        schema, workload, system, config = scenario
        cache_dir = tmp_path / "rotten"
        cache_dir.mkdir()
        (cache_dir / CANDIDATES_FILENAME).write_bytes(b"\x00\x01 rubble")
        server.registry.register(
            "rotten",
            schema,
            workload,
            system,
            config=config,
            options=EngineOptions(cache_dir=str(cache_dir), persist=False),
        )
        try:
            # Any request builds the session, which loads (and counts) the
            # corrupted store.
            http_json(
                server, "POST", "/warehouses/rotten/submit", {"kind": "recommend"}
            )
            status, health = http_json(server, "GET", "/healthz")
        finally:
            http_json(server, "DELETE", "/warehouses/rotten")
        assert status == 200
        assert health["store"]["fallback_loads"] >= 1

    def test_registry_store_health_aggregates_live_sessions_only(self, scenario):
        schema, workload, system, config = scenario
        registry = SessionRegistry(max_sessions=2)
        registry.register("idle", schema, workload, system, config=config)
        # No session built yet: nothing to aggregate.
        assert registry.store_health() == {
            "salt_mismatches": 0,
            "corrupt_entries": 0,
            "fallback_loads": 0,
        }
        entry = registry.acquire("idle")
        with entry.lock:
            session = entry.ensure_session()
        session.cache.stats.store_corrupt_entries += 2
        session.cache.stats.store_fallback_loads += 1
        health = registry.store_health()
        assert health["corrupt_entries"] == 2
        assert health["fallback_loads"] == 1
        registry.close()
