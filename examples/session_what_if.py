#!/usr/bin/env python3
"""An interactive what-if session, the way the paper demonstrates WARLOCK.

One :class:`repro.AdvisorSession` compiles the warehouse once and then serves
a chain of incremental edits — fewer disks, skewed data, a drill-heavy query
mix — each derived with ``session.with_delta(...)`` so the shared evaluation
cache carries every result the edit does not invalidate.  A progress meter
and a cooperative cancel token show the serving-side controls.

Run with::

    python examples/session_what_if.py [--dataset apb1|retail] [--scale 0.05]
"""

from __future__ import annotations

import argparse
import sys

from repro import (
    AdvisorConfig,
    AdvisorSession,
    SystemParameters,
    TuneRequest,
    apb1_query_mix,
    apb1_schema,
    retail_query_mix,
    retail_schema,
)


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", choices=["apb1", "retail"], default="apb1")
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--disks", type=int, default=64)
    return parser.parse_args()


def progress(event) -> None:
    """A minimal stderr meter (the CLI's --progress does the same)."""
    end = "\n" if event.completed >= event.total else ""
    print(f"\r  {event.describe()}", end=end, file=sys.stderr, flush=True)


def headline(result) -> str:
    best = result.best
    return (
        f"{best.label}: response {best.response_time_ms:,.0f} ms, "
        f"I/O cost {best.io_cost_ms:,.0f} ms ({best.fragment_count:,} fragments)"
    )


def main() -> None:
    args = parse_args()
    if args.dataset == "apb1":
        schema, workload = apb1_schema(scale=args.scale), apb1_query_mix()
        skewed_dimension = "product"
    else:
        schema, workload = retail_schema(scale=args.scale), retail_query_mix()
        skewed_dimension = schema.dimensions[0].name
    system = SystemParameters(num_disks=args.disks)
    config = AdvisorConfig(max_fragments=100_000, top_candidates=5)

    # One session: inputs validated once, bitmap scheme and class matrix
    # compiled once, one shared evaluation cache for the whole what-if chain.
    session = AdvisorSession(schema, workload, system, config)
    print(f"Session: {session.describe()}\n")

    print("Baseline recommendation:")
    base = session.recommend(on_progress=progress)
    print(f"  {headline(base)}\n")

    # Edit 1: half the disks.  Candidate keys change (the system did), but
    # every access structure is reused from the baseline sweep.
    halved = session.with_delta(disks=args.disks // 2)
    print(f"What if we had {args.disks // 2} disks?")
    print(f"  {headline(halved.recommend(on_progress=progress))}")
    print(f"  cache after the edit: {session.stats.describe()}\n")

    # Edit 2: skewed data on top of the halved system.
    skewed = halved.with_delta(skew={skewed_dimension: 0.8})
    print(f"...and {skewed_dimension!r} skewed (zipf theta 0.8)?")
    print(f"  {headline(skewed.recommend(on_progress=progress))}\n")

    # Edit 3: a drill-heavy mix — reweighting reuses every structure entry.
    heavy_class = next(iter(workload)).name
    drill = skewed.with_delta(mix_weights={heavy_class: 10.0})
    print(f"...and {heavy_class!r} weighted 10x?")
    print(f"  {headline(drill.recommend(on_progress=progress))}\n")

    # Typed requests serve front ends; every result is directly servable.
    study = drill.submit(TuneRequest(study="disks", settings=(16, 32, 64)))
    print(study.describe())
    print(f"\nFinal cache state: {session.stats.describe()}")
    print("Every recommendation above is bit-identical to a fresh advisor")
    print("built from the same edited inputs — the cache only skips work.")


if __name__ == "__main__":
    main()
