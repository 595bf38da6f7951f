"""Self-tests of the benchmark's own helpers (run with ``python3 -m pytest perfbench``)."""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import pytest  # noqa: E402

from percentiles import samples_beyond, tail_percentile  # noqa: E402
from tracing import Patches, Span, Tracer, self_times, unattributed, union_length  # noqa: E402


def _span(name, start, end, parent=None, op=None):
    span = Span(name, start, parent, op)
    span.end = end
    return span


# -- the percentile rule --------------------------------------------------------------


def test_p90_refused_below_ten_samples_beyond():
    assert tail_percentile([float(i) for i in range(99)], 0.9) is None
    assert samples_beyond(99, 0.9) == 9


def test_p90_reported_with_ten_samples_beyond():
    values = [float(i) for i in range(100)]
    assert samples_beyond(100, 0.9) == 10
    assert tail_percentile(values, 0.9) == 89.0
    assert tail_percentile(list(reversed(values)), 0.9) == 89.0


# -- span arithmetic -----------------------------------------------------------------


def test_self_time_subtracts_nested_children():
    root = _span("op", 0.0, 10.0)
    child = _span("a", 1.0, 4.0, root)
    grandchild = _span("b", 2.0, 3.0, child)
    selfs = self_times([root, child, grandchild])
    assert selfs[id(root)] == pytest.approx(7.0)
    assert selfs[id(child)] == pytest.approx(2.0)
    assert selfs[id(grandchild)] == pytest.approx(1.0)


def test_self_time_counts_overlapping_children_once():
    root = _span("op", 0.0, 10.0)
    first = _span("a", 1.0, 5.0, root)
    second = _span("b", 3.0, 7.0, root)
    # A child running past its parent only covers the parent's own interval.
    late = _span("c", 9.0, 12.0, root)
    # Covered: [1, 7] once (not 4 + 4) plus [9, 10].
    assert self_times([root, first, second, late])[id(root)] == pytest.approx(10.0 - 6.0 - 1.0)
    assert union_length([(1.0, 5.0), (3.0, 7.0), (6.0, 6.5)]) == pytest.approx(6.0)
    assert union_length([(0.0, 4.0)], clip=(1.0, 2.0)) == pytest.approx(1.0)


def test_unattributed_uses_spans_of_the_op_from_any_thread():
    root = _span("op", 0.0, 10.0, op=7)
    mine = _span("service.execute", 2.0, 6.0, op=7)
    other = _span("service.execute", 6.0, 9.0, op=8)
    assert unattributed([root], [root, mine, other]) == (pytest.approx(6.0), 10.0)


def test_generator_wrapper_times_each_item():
    tracer = Tracer()

    def numbers():
        yield from range(3)

    assert list(tracer.wrap_generator("gen", numbers)()) == [0, 1, 2]
    # One span per next(), the last one seeing StopIteration.
    assert len(tracer.spans) == 4
    assert sum((s.counters or {}).get("items", 0) for s in tracer.spans) == 3


# -- probe installation is fully reversible ----------------------------------------------


class _Owner:
    @classmethod
    def build(cls, value):
        return (cls, value)

    def method(self):
        return "method"


def test_patches_restore_the_original_objects():
    originals = dict(vars(_Owner))
    tracer = Tracer()
    patches = Patches()
    patches.replace(_Owner, "build", lambda fn: tracer.wrap("build", fn))
    patches.replace(_Owner, "method", lambda fn: tracer.wrap("method", fn))
    assert _Owner.build(1) == (_Owner, 1)
    assert _Owner().method() == "method"
    assert [span.name for span in tracer.spans] == ["build", "method"]
    patches.remove()
    for attr in ("build", "method"):
        assert vars(_Owner)[attr] is originals[attr]


def test_layer_probes_leave_the_program_untouched_after_removal():
    import repro.api.session as session_module
    import repro.engine.executor as executor_module
    from probes import LayerProbes
    from repro import AdvisorSession, SystemParameters, apb1_query_mix, apb1_schema

    probes = LayerProbes(Tracer()).install()
    targets = probes.patches.targets
    assert {owner for owner, _, _ in targets} >= {session_module, executor_module}
    probes.remove()
    for owner, attr, original in targets:
        assert vars(owner)[attr] is original, f"{owner}.{attr} still wrapped"

    # An untraced run in the same process records nothing.
    session = AdvisorSession(
        apb1_schema(scale=0.02), apb1_query_mix(), SystemParameters(num_disks=8)
    )
    session.recommend()
    assert probes.tracer.spans == []


def test_layer_probes_record_the_pipeline_while_installed():
    from probes import LayerProbes, layer_metrics
    from repro import AdvisorSession, SystemParameters, apb1_query_mix, apb1_schema

    tracer = Tracer()
    probes = LayerProbes(tracer).install()
    try:
        root = tracer.open("op", op=0)
        tracer.current_op = 0
        AdvisorSession(
            apb1_schema(scale=0.02), apb1_query_mix(), SystemParameters(num_disks=8)
        ).recommend()
        tracer.close(root)
    finally:
        probes.remove()
    metrics = layer_metrics(probes, tracer.spans, 1.0, 1.0)
    assert metrics["fragmentation.enumerate.items"] > 0
    assert metrics["costmodel.structures.items"] > 0
    assert 0.0 < metrics["core.thresholds.survivor_ratio"] <= 1.0
    assert metrics["engine.store.load_s"] == 0.0
    assert 0.0 <= metrics["trace.unattributed_share"] < 1.0


def test_cache_deltas_count_only_while_installed():
    from probes import LayerProbes
    from repro import AdvisorSession, SystemParameters, apb1_query_mix, apb1_schema

    inputs = (apb1_schema(scale=0.02), apb1_query_mix(), SystemParameters(num_disks=8))
    session = AdvisorSession(*inputs)
    probes = LayerProbes(Tracer())
    probes.install()
    session.recommend()
    probes.remove()
    traced = dict(probes.cache_deltas())
    assert traced["candidate_misses"] > 0
    AdvisorSession(*inputs, cache=session.cache).recommend()
    assert dict(probes.cache_deltas()) == traced


def test_service_probes_attribute_a_job_a_worker_runs_at_once():
    from probes import LayerProbes
    from repro.service import RequestExecutor

    tracer = Tracer()
    probes = LayerProbes(tracer).install()
    executor = RequestExecutor(workers=1)
    seen = []
    try:
        for op in range(20):
            probes.expect("w:recommend", op)
            job = executor.submit(lambda: seen.append(tracer.current_op), label="w:recommend")
            assert job.wait(10)
    finally:
        executor.shutdown()
        probes.remove()
    assert seen == list(range(20))
    waits = [span for span in tracer.spans if span.name == "service.queue_wait"]
    assert [span.op for span in waits] == list(range(20))
    assert all(span.duration >= 0.0 for span in waits)


def test_reported_metric_names_match_the_benchmark_file():
    import json

    from probes import layer_metrics, LayerProbes
    from run import end_to_end
    from workloads import Op

    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ops = [Op("a", 0.2), Op("b", 0.01, state="warm")]
    assert set(end_to_end(ops, 1.0, 0.5, 100.0)) == {m["name"] for m in declared["end_to_end"]}
    layers = layer_metrics(LayerProbes(Tracer()), [], 1.0, 1.0)
    assert set(layers) == {m["name"] for m in declared["per_layer"]}


# -- seeded plans ------------------------------------------------------------------------


def _take(iterator, count):
    return [next(iterator) for _ in range(count)]


def test_one_seed_yields_the_identical_edit_walk():
    from workloads import WhatIfWorkload

    walk = _take(WhatIfWorkload(5).walk(), 200)
    assert walk == _take(WhatIfWorkload(5).walk(), 200)
    assert walk != _take(WhatIfWorkload(6).walk(), 200)
    # Every pass visits all 18 states; each edit brings its two revisits.
    assert len({state for kind, state in walk[:54] if kind == "edit"}) == 18
    assert sum(1 for kind, _ in walk[:54] if kind == "revisit") == 36


def test_one_seed_yields_the_identical_request_plan(tmp_path):
    from workloads import ServeWorkload

    def plan(seed):
        return _take(ServeWorkload(seed, str(tmp_path)).plan(), 110)

    requests = plan(5)
    assert requests == plan(5)
    assert requests != plan(6)
    # Each cycle: the hot kinds on the hot warehouse, then one tail request.
    cycle = len(ServeWorkload.HOT_KINDS) + 1
    hot = [r for i, r in enumerate(requests) if i % cycle != cycle - 1]
    tail = requests[cycle - 1::cycle]
    assert {warehouse for warehouse, _, _ in hot} == {ServeWorkload.HOT}
    assert [kind for _, kind, _ in hot[:10]] == list(ServeWorkload.HOT_KINDS)
    # Consecutive tail requests always name different cold warehouses.
    assert all(warehouse in ServeWorkload.TAIL for warehouse, _, _ in tail)
    assert all(a[0] != b[0] for a, b in zip(tail, tail[1:]))
    # The seed draws the plan, not the warehouses the store is built from.
    def mixes(seed):
        warehouses = ServeWorkload(seed, str(tmp_path)).warehouse_inputs()
        return {name: inputs[1] for name, inputs in warehouses.items()}

    assert mixes(5) == mixes(6)
