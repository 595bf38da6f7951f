"""End-to-end benchmark of the WARLOCK advisor.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep-uniform --seed 1 --seconds 10 --trace 0

One run sets the workload up several times (``setup_s`` is the median),
measures ops for ``--seconds``, checks every answer against the scalar
reference oracle after the window, and prints a report whose last line is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
one-second slices without and with the layer probes of ``probes.py``
installed; the per-layer metrics come from the traced slices and the
tracing overhead from comparing the two.  The spans are written to
``.perfbench_out/spans-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
#: Set-ups per run (``setup_s`` is their median): at least 3, and up to 9
#: while all of them together took under ``SETUP_BUDGET_S``.
SETUP_REPEATS = (3, 9)
SETUP_BUDGET_S = 4.0
#: Length of each untraced and each traced slice of a ``--trace 1`` run.
TRACE_SLICE_S = 1.0


def _import_program() -> bool:
    """Put the checkout's ``src`` on the path; False when it is missing."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    try:
        import repro  # noqa: F401
    except ImportError:
        return False
    return True


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(ops, busy_s: float, setup_s: float, rss_mb: float):
    """The end-to-end metrics of one untraced window (``None`` if undefined)."""
    main = [op.seconds for op in ops if op.main and op.error is None]
    activate = [op.seconds for op in ops if op.state == "activate" and op.error is None]
    warm = [op.seconds for op in ops if op.state == "warm" and op.error is None]
    if not main or not activate or not warm:
        return None
    return {
        "setup_s": _metric(setup_s, "s"),
        "op_p50_ms": _metric(median(main) * 1000.0, "ms"),
        "ops_per_s": _metric(len(main) / busy_s, "1/s"),
        "activate_p50_ms": _metric(median(activate) * 1000.0, "ms"),
        "warm_request_p50_ms": _metric(median(warm) * 1000.0, "ms"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
    }


def _print_tail(ops) -> None:
    from percentiles import MIN_BEYOND, tail_percentile

    main = [op.seconds for op in ops if op.main and op.error is None]
    p90 = tail_percentile(main, 0.9)
    if p90 is None:
        print(
            f"op_p90_ms: refused ({len(main)} samples; needs {MIN_BEYOND} beyond "
            f"the 90th percentile, i.e. at least {MIN_BEYOND * 10})"
        )
    else:
        print(f"op_p90_ms: {p90 * 1000.0:.3f} ms ({len(main)} samples)")


def _untraced(workload, seconds: float, setup_s: float):
    """One untraced window: its ops and end-to-end metrics."""
    gc.collect()
    ops = workload.run(seconds)
    # Ops run one at a time; answer digests and the sweeps' re-asks run
    # between them, outside the time they keep the user waiting.
    busy_s = sum(op.seconds for op in ops if op.main)
    _print_tail(ops)
    return ops, end_to_end(ops, busy_s, setup_s, _peak_rss_mb())


def _traced(workload, seconds: float, name: str):
    """Alternate untraced and traced slices: their ops and per-layer metrics.

    The host's speed drifts over seconds, so the two conditions take turns
    every ``TRACE_SLICE_S`` and the tracing overhead compares their medians.
    Both run with a tracer, so both skip the same side work; only the traced
    slices have the layer probes installed, and only they feed the layers.
    """
    from probes import OP, LayerProbes, layer_metrics, summary_rows, unit_of
    from tracing import Tracer, format_exec_summary

    def p50_ms(ops) -> float:
        main = [op.seconds for op in ops if op.main]
        return median(main) * 1000.0 if main else 0.0

    reference, traced = [], []
    tracer = Tracer()
    probes = LayerProbes(tracer)
    evictions = 0
    gc.collect()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        reference += workload.run(TRACE_SLICE_S, Tracer())
        before = workload.evictions()
        probes.install()
        try:
            traced += workload.run(TRACE_SLICE_S, tracer, probes)
        finally:
            probes.remove()
        evictions += workload.evictions() - before
        # The recorded spans only grow; keep the collector from rescanning
        # them, which would charge a growing pause to the traced slices.
        gc.freeze()
    gc.unfreeze()
    spans = tracer.spans
    values = layer_metrics(
        probes, spans, p50_ms(traced), p50_ms(reference),
        store_bytes=workload.store_bytes(), evictions=evictions,
    )
    ops_traced = sum(1 for span in spans if span.name == OP)
    print(format_exec_summary(summary_rows(probes, spans), ops_traced))
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{name}.jsonl"
    print(f"wrote {tracer.dump(str(path))} spans to {path}")
    return reference + traced, {key: _metric(value, unit_of(key)) for key, value in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not _import_program():
        print(f"error: no importable program under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, make

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {WORKLOADS}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = make(args.workload, args.seed, str(workdir))
    try:
        setups = []
        fewest, most = SETUP_REPEATS
        while len(setups) < fewest or (len(setups) < most and sum(setups) < SETUP_BUDGET_S):
            start = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - start)
            gc.collect()
        print(f"workload {args.workload} seed {args.seed}: set-up runs "
              + ", ".join(f"{s:.3f}" for s in setups) + " s")
        if args.trace:
            ops, metrics = _traced(workload, args.seconds, args.workload)
        else:
            ops, metrics = _untraced(workload, args.seconds, median(setups))
        print("workload properties: " + json.dumps(workload.properties(ops), sort_keys=True))
        workload.verify(ops)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for op in ops if op.failed)
    print(f"attempted {len(ops)} ops, failed {failed} (failed_ratio "
          f"{failed / max(len(ops), 1):.4f}; answers checked against the scalar oracle)")
    if metrics is None:
        print("error: a latency class had no successful samples", file=sys.stderr)
        metrics, failed = {}, max(failed, 1)
    for name, metric in metrics.items():
        print(f"{name}: {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
