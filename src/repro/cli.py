"""Command-line front end (replaces the original Java GUI).

The CLI exposes the advisor pipeline on the bundled configurations or on a
JSON-described schema/workload::

    warlock recommend --dataset apb1 --disks 64 --top 10
    warlock analyze   --dataset retail --disks 32
    warlock simulate  --dataset apb1 --disks 64 --queries 20
    warlock recommend --config my_warehouse.json

The JSON configuration format mirrors the input layer of the paper: a star
schema block (dimensions with hierarchy cardinalities, fact tables), a DBS &
disk parameter block and a weighted query mix.  See ``example_config()`` for a
template.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from typing import Callable, List, Optional, Tuple

from repro.analysis import (
    format_allocation_report,
    format_full_report,
    format_query_analysis,
    format_ranking_table,
    occupancy_chart,
)
from repro.api import AdvisorSession, EngineOptions
from repro.core import AdvisorConfig
from repro.errors import WarlockError
from repro.io import (
    BUNDLED_DATASETS,
    bundled_inputs,
    example_config,
    load_config_file,
    load_engine_section,
    recommendation_to_dict,
)
from repro.io.config import (
    DEFAULT_ARCHITECTURE,
    DEFAULT_DISKS,
    DEFAULT_SCALE,
    DEFAULT_SKEW,
)
from repro.schema import StarSchema
from repro.storage import SystemParameters
from repro.workload import QueryMix

__all__ = ["main", "build_parser", "load_config", "example_config"]


def load_config(path: str) -> Tuple[StarSchema, QueryMix, SystemParameters]:
    """Load schema, workload and system parameters from a JSON file.

    Thin alias of :func:`repro.io.load_config_file`, kept on the CLI module for
    convenience ("the CLI's config format").
    """
    return load_config_file(path)


# ---------------------------------------------------------------------------
# Dataset / argument resolution
# ---------------------------------------------------------------------------

#: Environment variable supplying the default ``--cache-dir``.
CACHE_DIR_ENV = "WARLOCK_CACHE_DIR"


def _resolve_inputs(args: argparse.Namespace) -> Tuple[StarSchema, QueryMix, SystemParameters]:
    """The invocation's schema, workload and system.

    The system/dataset flags default to ``None`` so an *explicitly passed*
    value is detectable: with ``--config`` an explicit ``--disks`` /
    ``--architecture`` overrides the config file's system block, while the
    bundled datasets' defaults (:func:`repro.io.bundled_inputs`) never do.
    """
    if args.config:
        # --scale/--skew shape the bundled datasets; a config file brings its
        # own schema, so silently ignoring them would be lying to the user.
        for flag, value in (("--scale", args.scale), ("--skew", args.skew)):
            if value is not None:
                raise WarlockError(
                    f"{flag} only applies to the bundled datasets and cannot "
                    f"modify a --config run; drop {flag} or --config"
                )
        schema, workload, system = load_config(args.config)
        # Explicitly passed CLI values override the config file's system block.
        if args.disks is not None:
            system = system.with_disks(args.disks)
        if args.architecture is not None:
            system = system.with_architecture(args.architecture)
    else:
        knobs = {
            "scale": args.scale,
            "skew": args.skew,
            "disks": args.disks,
            "architecture": args.architecture,
        }
        schema, workload, system = bundled_inputs(
            args.dataset,
            **{knob: value for knob, value in knobs.items() if value is not None},
        )
    return schema, workload, system


def _engine_options(args: argparse.Namespace) -> EngineOptions:
    """The one resolver of this invocation's :class:`EngineOptions`.

    Precedence per knob: explicit flags > environment (``$WARLOCK_CACHE_DIR``)
    > the config file's ``"engine"`` block > built-in defaults.  Conflicting
    flags error out consistently across every subcommand: in particular
    ``--no-cache-persist`` with no cache directory resolved from any source
    has nothing to disable.
    """
    section = {}
    if getattr(args, "config", None):
        section = load_engine_section(args.config)
    if getattr(args, "no_vectorize", False):
        vectorize = False
    else:
        vectorize = section.get("vectorize", True)
    cache_dir = (
        getattr(args, "cache_dir", None)
        or os.environ.get(CACHE_DIR_ENV)
        or section.get("cache_dir")
        or None
    )
    if getattr(args, "no_cache_persist", False):
        if cache_dir is None:
            raise WarlockError(
                "--no-cache-persist has nothing to disable: no --cache-dir, "
                f"${CACHE_DIR_ENV} or config-file engine.cache_dir is set"
            )
        cache_dir = None
    cache_max_mb = getattr(args, "cache_max_mb", None)
    if cache_max_mb is None and cache_dir is not None:
        # A config-file budget only applies when a store directory resolved;
        # an *explicit* --cache-max-mb without any store is a real conflict
        # and falls through to EngineOptions' validation error.
        cache_max_mb = section.get("cache_max_mb")
    return EngineOptions(
        vectorize=vectorize,
        cache=section.get("cache", True),
        cache_dir=cache_dir,
        persist=section.get("persist", True),
        cache_max_mb=cache_max_mb,
    )


def _progress_meter(args: argparse.Namespace):
    """The ``--progress`` stderr meter (``None`` when disabled).

    Interactive terminals get the animated single-line meter (carriage-
    returned frames, completed with a newline).  When stderr is redirected —
    CI logs, ``2>file`` — the ``\\r`` frames would pile up into one garbled
    line, so each event is printed as its own newline-terminated record
    instead.
    """
    if not getattr(args, "progress", False):
        return None
    animate = sys.stderr.isatty()

    def on_progress(event) -> None:
        if animate:
            # One carriage-returned line per sweep, completed with a newline
            # so the next sweep (or the result) starts clean.
            end = "\n" if event.completed >= event.total else ""
            print(
                f"\rwarlock: {event.describe()}", end=end, file=sys.stderr, flush=True
            )
        else:
            print(f"warlock: {event.describe()}", file=sys.stderr, flush=True)

    return on_progress


def _install_sigint(token) -> Callable[[], None]:
    """Route the first Ctrl-C to ``token.cancel()``; returns a restorer.

    The sweep then stops cooperatively at its next chunk boundary and the
    engine's persist-in-finally path still spills every completed entry to an
    attached store.  A second Ctrl-C raises :class:`KeyboardInterrupt` as
    usual (escape hatch for a stuck sweep).  Off the main thread — embedded
    callers running the CLI programmatically — signals cannot be installed;
    the restorer is then a no-op and cancellation simply stays manual.
    """

    def handler(signum, frame):
        if token.cancelled:
            raise KeyboardInterrupt
        token.cancel()

    try:
        previous = signal.signal(signal.SIGINT, handler)
    except ValueError:
        return lambda: None
    return lambda: signal.signal(signal.SIGINT, previous)


def _advisor(args: argparse.Namespace) -> AdvisorSession:
    schema, workload, system = _resolve_inputs(args)
    config = AdvisorConfig(
        top_fraction=args.top_fraction,
        top_candidates=args.top,
        max_fragments=args.max_fragments,
    )
    return AdvisorSession(
        schema, workload, system, config, options=_engine_options(args)
    )


def _recommend(session: AdvisorSession, args: argparse.Namespace):
    """The session's recommendation, with the ``--progress`` meter and Ctrl-C."""
    return session.recommend(
        on_progress=_progress_meter(args), cancel=getattr(args, "cancel", None)
    )


def _finish_cache(session: AdvisorSession) -> None:
    """Flush the persistent cache and report its use (stderr, one line)."""
    cache = session.cache
    if cache is None or cache.store is None:
        return
    saved = session.persist_cache()
    stats = cache.stats
    if saved is not None:
        store_note = f"saved {saved} entries"
    elif not session.options.persist:
        store_note = "store read-only (persist disabled)"
    elif cache.dirty:
        # persist() returned nothing although there is unsaved content: the
        # store location is not writable (best-effort by design, but worth
        # telling the user — every future run will start cold).
        store_note = "store not writable (warm start unavailable)"
    else:
        store_note = "store up to date"
    print(
        f"persistent cache [{cache.store.cache_dir}]: "
        f"{cache.loaded_from_disk} entries loaded; "
        f"disk hits {stats.disk_hits}/{stats.lookups} ({stats.disk_hit_rate:.1%}); "
        + store_note,
        file=sys.stderr,
    )


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_recommend(args: argparse.Namespace) -> int:
    session = _advisor(args)
    recommendation = _recommend(session, args).recommendation
    if args.json:
        payload = recommendation_to_dict(recommendation)
        # Convenience aliases for scripts that only need the headline counts.
        payload["excluded"] = recommendation.exclusion_report.excluded_count
        payload["evaluated"] = recommendation.exclusion_report.surviving_count
        print(json.dumps(payload, indent=2))
    else:
        print(format_ranking_table(recommendation))
    _finish_cache(session)
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    session = _advisor(args)
    result = _recommend(session, args)
    candidate = (
        result.recommendation.candidate(args.fragmentation)
        if args.fragmentation
        else result.best
    )
    print(format_query_analysis(candidate, session.workload))
    print()
    print(format_allocation_report(candidate))
    print()
    print(occupancy_chart(candidate))
    _finish_cache(session)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    session = _advisor(args)
    recommendation = _recommend(session, args).recommendation
    print(format_full_report(recommendation, detail_top=args.detail_top))
    _finish_cache(session)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    session = _advisor(args)
    result = session.simulate(
        fragmentation=args.fragmentation,
        queries_per_class=args.queries,
        seed=args.seed,
        on_progress=_progress_meter(args),
        cancel=getattr(args, "cancel", None),
    )
    print(f"Simulating {result.candidate_label} on {session.system.describe()}")
    print(result.describe())
    _finish_cache(session)
    return 0


def _cmd_suggest(args: argparse.Namespace) -> int:
    """Print the workload-driven dimension ranking and fragmentation suggestion."""
    from repro.analysis import format_table
    from repro.graph import dimension_ranking, suggest_fragmentation_dimensions

    # Resolved for validation only: conflicting engine flags (for instance
    # --no-cache-persist with nothing to disable) must error consistently on
    # every subcommand, including ones that never build an advisor.
    _engine_options(args)
    schema, workload, _system = _resolve_inputs(args)
    ranking = dimension_ranking(schema, workload)
    print(f"Dimension access shares for {schema.name} ({len(workload)} query classes)")
    print(
        format_table(
            ["dimension", "workload share restricting it"],
            [[name, f"{share:.1%}"] for name, share in ranking],
        )
    )
    suggestion = suggest_fragmentation_dimensions(
        schema, workload, max_dimensions=args.max_dimensions
    )
    print()
    print("Suggested fragmentation dimensions (pre-selection, cost model decides levels):")
    print("  " + (", ".join(suggestion) if suggestion else "(none)"))
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    """Run the interactive what-if studies for the recommended fragmentation."""
    session = _advisor(args)
    result = _recommend(session, args)
    spec = (
        result.recommendation.candidate(args.fragmentation)
        if args.fragmentation
        else result.best
    ).spec
    print(f"What-if studies for {spec.label} on {session.system.describe()}")
    # The studies share the session's evaluation cache, so settings that keep
    # the access structure unchanged reuse the recommend() work above.
    for study in ("disks", "architecture", "prefetch"):
        print()
        tuned = session.tune(study, spec=spec, cancel=getattr(args, "cancel", None))
        print(tuned.describe())
    _finish_cache(session)
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run the static-analysis rules (see :mod:`repro.lint`)."""
    from repro.lint.framework import LintError
    from repro.lint.runner import run_from_args

    try:
        return run_from_args(args)
    except LintError as error:
        print(f"lint: error: {error}", file=sys.stderr)
        return 2


def _cmd_serve(args: argparse.Namespace) -> int:
    """Serve advisor sessions over HTTP (see :mod:`repro.service`)."""
    from repro.service import AdvisorServer, RequestExecutor, SessionRegistry

    # The serve command shares the whole input/engine resolver stack: the
    # common flags describe the warehouse preloaded at startup, and the
    # resolved EngineOptions become the server-wide defaults every HTTP
    # registration's "engine" block overrides field by field.
    options = _engine_options(args)
    registry = SessionRegistry(
        max_sessions=args.max_sessions, idle_timeout=args.idle_timeout
    )
    executor = RequestExecutor(
        workers=args.request_workers,
        capacity=args.queue_capacity,
        timeout=args.request_timeout,
    )
    server = AdvisorServer(
        registry=registry,
        executor=executor,
        host=args.host,
        port=args.port,
        options=options,
    )
    if args.warehouse:
        schema, workload, system = _resolve_inputs(args)
        config = AdvisorConfig(
            top_fraction=args.top_fraction,
            top_candidates=args.top,
            max_fragments=args.max_fragments,
        )
        registry.register(
            args.warehouse, schema, workload, system, config=config, options=options
        )
        print(f"warlock: preloaded warehouse {args.warehouse!r}", file=sys.stderr)

    def announce(srv) -> None:
        print(
            f"warlock: serving advisor sessions on {srv.url} "
            f"(max {args.max_sessions} sessions, {args.request_workers} request "
            f"workers; Ctrl-C to stop)",
            file=sys.stderr,
            flush=True,
        )

    # The SIGINT-wired token from main() doubles as the shutdown signal:
    # the first Ctrl-C stops accepting connections, closes every session
    # (flushing caches to attached stores) and returns cleanly.
    server.run(shutdown=getattr(args, "cancel", None), on_ready=announce)
    print("warlock: server stopped", file=sys.stderr)
    return 0


def _cmd_example_config(args: argparse.Namespace) -> int:
    print(json.dumps(example_config(), indent=2))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dataset",
        choices=BUNDLED_DATASETS,
        default="apb1",
        help="bundled dataset to use when no --config is given",
    )
    parser.add_argument("--config", help="JSON configuration file (see example-config)")
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help=f"fact table scale factor for the bundled datasets "
        f"(default {DEFAULT_SCALE}; an error with --config, which brings its own schema)",
    )
    parser.add_argument(
        "--skew",
        type=float,
        default=None,
        help=f"zipf theta for the product dimension (apb1 only; default "
        f"{DEFAULT_SKEW}; an error with --config)",
    )
    parser.add_argument(
        "--disks",
        type=int,
        default=None,
        help=f"number of disks (default {DEFAULT_DISKS}; when passed together "
        f"with --config it overrides the config file's system block)",
    )
    parser.add_argument(
        "--architecture",
        default=None,
        help=f"parallel architecture: shared_disk or shared_everything "
        f"(default {DEFAULT_ARCHITECTURE}; when passed together with --config "
        f"it overrides the config file's system block)",
    )
    parser.add_argument("--top", type=int, default=10, help="candidates in the final ranking")
    parser.add_argument(
        "--top-fraction",
        type=float,
        default=0.25,
        help="leading fraction (by I/O cost) re-ranked by response time",
    )
    parser.add_argument(
        "--max-fragments", type=int, default=100_000, help="exclusion threshold on fragment count"
    )
    parser.add_argument(
        "--no-vectorize",
        action="store_true",
        help="evaluate the per-query-class cost sweep with the scalar "
        "reference path instead of the vectorized candidate-axis batches "
        "(results are bit-identical; this is an escape hatch / A-B check)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="directory of the persistent evaluation cache: invocations "
        "sharing it warm-start from each other's evaluations (content-"
        "addressed, version-salted; corrupted or stale stores are ignored "
        f"and results never change).  Falls back to ${CACHE_DIR_ENV}, then "
        "to the config file's engine block",
    )
    parser.add_argument(
        "--cache-max-mb",
        type=float,
        default=None,
        metavar="MB",
        help="byte budget of the persistent cache directory in megabytes: "
        "every save garbage-collects the store down to the budget, evicting "
        "the least-recently-used entries first (requires a cache directory; "
        "default: unbounded).  Falls back to the config file's engine block",
    )
    parser.add_argument(
        "--no-cache-persist",
        action="store_true",
        help=f"keep the evaluation cache in memory only, ignoring "
        f"--cache-dir, ${CACHE_DIR_ENV} and the config file's engine block "
        "(an error when none of those is set — there is nothing to disable)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="render a live candidate-sweep progress meter on stderr "
        "(one update per evaluation chunk)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the ``warlock`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="warlock",
        description="WARLOCK: data allocation advisor for parallel data warehouses",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    recommend = subparsers.add_parser("recommend", help="print the ranked candidate list")
    _add_common_arguments(recommend)
    recommend.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    recommend.set_defaults(func=_cmd_recommend)

    analyze = subparsers.add_parser("analyze", help="detailed query/allocation analysis")
    _add_common_arguments(analyze)
    analyze.add_argument("--fragmentation", help="label of the candidate to analyze (default: best)")
    analyze.set_defaults(func=_cmd_analyze)

    report = subparsers.add_parser("report", help="full report (ranking + analysis)")
    _add_common_arguments(report)
    report.add_argument("--detail-top", type=int, default=1, help="candidates analyzed in detail")
    report.set_defaults(func=_cmd_report)

    simulate = subparsers.add_parser("simulate", help="replay the workload on the recommended allocation")
    _add_common_arguments(simulate)
    simulate.add_argument("--fragmentation", help="label of the candidate to simulate (default: best)")
    simulate.add_argument("--queries", type=int, default=10, help="query instances per class")
    simulate.add_argument("--seed", type=int, default=0, help="random seed")
    simulate.set_defaults(func=_cmd_simulate)

    suggest = subparsers.add_parser(
        "suggest", help="rank dimensions by workload affinity and suggest fragmentation dimensions"
    )
    _add_common_arguments(suggest)
    suggest.add_argument(
        "--max-dimensions", type=int, default=3, help="maximum suggested fragmentation dimensions"
    )
    suggest.set_defaults(func=_cmd_suggest)

    tune = subparsers.add_parser(
        "tune", help="run disk/architecture/prefetch what-if studies for the recommended fragmentation"
    )
    _add_common_arguments(tune)
    tune.add_argument("--fragmentation", help="label of the candidate to study (default: best)")
    tune.set_defaults(func=_cmd_tune)

    serve = subparsers.add_parser(
        "serve", help="serve advisor sessions over HTTP (SSE progress streaming)"
    )
    _add_common_arguments(serve)
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    serve.add_argument(
        "--port", type=int, default=8642, help="bind port (default 8642; 0 picks a free port)"
    )
    serve.add_argument(
        "--max-sessions",
        type=int,
        default=8,
        help="cap on simultaneously live advisor sessions; the least-recently-"
        "used session over the cap is closed (its cache flushed to any "
        "attached store) while its warehouse stays registered",
    )
    serve.add_argument(
        "--idle-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="close sessions idle longer than this on the next registry "
        "access (default: never)",
    )
    serve.add_argument(
        "--request-workers",
        type=int,
        default=4,
        help="worker threads draining the request queue (concurrent sweeps)",
    )
    serve.add_argument(
        "--queue-capacity",
        type=int,
        default=64,
        help="bound on queued requests; a saturated queue answers 503",
    )
    serve.add_argument(
        "--request-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-request deadline covering queue wait plus execution: a "
        "request over budget is answered 504 and its sweep cancelled at the "
        "next chunk boundary (completed entries stay warm in the session "
        "cache; default: no deadline)",
    )
    serve.add_argument(
        "--warehouse",
        default=None,
        metavar="NAME",
        help="preload the warehouse described by the dataset/config flags "
        "under this name (more can be registered over HTTP)",
    )
    serve.set_defaults(func=_cmd_serve)

    example = subparsers.add_parser("example-config", help="print a JSON configuration template")
    example.set_defaults(func=_cmd_example_config)

    lint = subparsers.add_parser(
        "lint",
        help="static analysis over the advisor's load-bearing contracts "
        "(see also: python -m repro.lint)",
    )
    # Deferred import: the lint framework is only needed by this subcommand.
    from repro.lint.runner import add_lint_arguments

    add_lint_arguments(lint)
    lint.set_defaults(func=_cmd_lint)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    from repro.api import CancellationToken
    from repro.errors import EvaluationCancelled

    from repro.lint.sanitizer import install_from_env

    # Opt-in runtime concurrency sanitizer (WARLOCK_SANITIZE=1): no-op when
    # the variable is unset, instrument-only when set.
    install_from_env()
    parser = build_parser()
    args = parser.parse_args(argv)
    # Every command runs under a SIGINT-wired CancellationToken: Ctrl-C
    # cancels the sweep cooperatively at the next chunk boundary (completed
    # entries are still spilled to an attached store by the engine's
    # persist-in-finally path) instead of dumping a KeyboardInterrupt trace.
    args.cancel = CancellationToken()
    restore_sigint = _install_sigint(args.cancel)
    try:
        return args.func(args)
    except EvaluationCancelled as error:
        print(f"warlock: cancelled ({error})", file=sys.stderr)
        return 130
    except WarlockError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        restore_sigint()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
