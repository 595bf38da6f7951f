"""Tests for the command-line front end (repro.cli)."""

from __future__ import annotations

import json
import re
import sys

import pytest

from repro.cli import (
    _engine_options,
    _resolve_inputs,
    build_parser,
    example_config,
    load_config,
    main,
)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_recommend_defaults(self):
        args = build_parser().parse_args(["recommend"])
        assert args.dataset == "apb1"
        # System/dataset flags default to None so an explicit value is
        # detectable (config-file override precedence); the effective
        # defaults are applied late, during input resolution.
        assert args.disks is None
        assert args.architecture is None
        assert args.scale is None
        assert args.skew is None
        assert args.top == 10
        _schema, _workload, system = _resolve_inputs(args)
        assert system.num_disks == 64
        assert system.architecture.value == "shared_disk"

    def test_simulate_arguments(self):
        args = build_parser().parse_args(
            ["simulate", "--dataset", "retail", "--queries", "5", "--seed", "9"]
        )
        assert args.dataset == "retail"
        assert args.queries == 5
        assert args.seed == 9


class TestCommands:
    COMMON = ["--scale", "0.01", "--disks", "16", "--max-fragments", "20000"]

    def test_recommend_table(self, capsys):
        assert main(["recommend", *self.COMMON, "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "Top fragmentation candidates" in out
        assert "I/O cost" in out

    def test_recommend_json(self, capsys):
        assert main(["recommend", *self.COMMON, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["evaluated"] > 0
        assert payload["ranked"]
        assert "fragmentation" in payload["ranked"][0]

    def test_analyze(self, capsys):
        assert main(["analyze", *self.COMMON]) == 0
        out = capsys.readouterr().out
        assert "Database statistic" in out
        assert "Physical allocation scheme" in out

    def test_report(self, capsys):
        assert main(["report", *self.COMMON, "--detail-top", "1"]) == 0
        out = capsys.readouterr().out
        assert "WARLOCK recommendation" in out
        assert "Prefetch granule suggestion" in out

    def test_simulate(self, capsys):
        assert main(["simulate", *self.COMMON, "--queries", "2"]) == 0
        out = capsys.readouterr().out
        assert "Simulated workload" in out
        assert "Analytical prediction" in out

    def test_retail_dataset(self, capsys):
        assert main(["recommend", "--dataset", "retail", *self.COMMON, "--top", "2"]) == 0
        assert "Top fragmentation candidates" in capsys.readouterr().out

    def test_suggest(self, capsys):
        assert main(["suggest", *self.COMMON]) == 0
        out = capsys.readouterr().out
        assert "Dimension access shares" in out
        assert "Suggested fragmentation dimensions" in out
        assert "time" in out

    def test_tune(self, capsys):
        assert main(["tune", *self.COMMON]) == 0
        out = capsys.readouterr().out
        assert "Disk-count study" in out
        assert "Architecture study" in out
        assert "Prefetch study" in out

    def test_example_config_prints_json(self, capsys):
        assert main(["example-config"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "schema" in payload and "workload" in payload and "system" in payload

    def test_error_exit_code(self, capsys):
        # A max-fragments threshold of 1 excludes every candidate.
        code = main(["recommend", *self.COMMON[:-2], "--max-fragments", "1"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["recommend", "tune"])
    def test_out_of_range_disk_count_exits_2(self, command, capsys):
        # Rejected while the inputs are built, before anything is sized by it.
        assert main([command, "--scale", "0.01", "--disks", str(10**30)]) == 2
        assert "num_disks" in capsys.readouterr().err


class TestVectorizeFlag:
    COMMON = ["--scale", "0.01", "--disks", "16", "--max-fragments", "20000"]

    def test_vectorized_is_the_default(self):
        args = build_parser().parse_args(["recommend"])
        assert args.no_vectorize is False

    def test_no_vectorize_in_help_text(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["recommend", "--help"])
        assert "--no-vectorize" in capsys.readouterr().out

    def test_no_vectorize_matches_vectorized_output(self, capsys):
        assert main(["recommend", *self.COMMON, "--json"]) == 0
        vectorized = json.loads(capsys.readouterr().out)
        assert main(["recommend", *self.COMMON, "--json", "--no-vectorize"]) == 0
        scalar = json.loads(capsys.readouterr().out)
        assert vectorized == scalar

    def test_vectorize_mode_flag_outputs_are_identical(self, capsys):
        # The one mode flag left also holds beyond recommend: tune's what-if
        # studies evaluate single candidates (1-row stacks vs the scalar
        # oracle), report renders the full ranking.
        for command in ("tune", "report"):
            assert main([command, *self.COMMON]) == 0
            batched = capsys.readouterr().out
            assert main([command, *self.COMMON, "--no-vectorize"]) == 0
            assert capsys.readouterr().out == batched, command

    def test_vectorize_mode_rejects_unknown_values(self, tmp_path, capsys):
        # Only --no-vectorize exists: argparse rejects --vectorize outright,
        # like the removed sweep-distribution flag and worker subcommand.
        removed = [["recommend", "--vectorize", value]
                   for value in ("candidates", "classes", "none", "rows")]
        removed += [["recommend", "--fabric", "127.0.0.1:0"], ["worker", "127.0.0.1:0"]]
        for argv in removed:
            with pytest.raises(SystemExit) as excinfo:
                build_parser().parse_args(argv)
            assert excinfo.value.code == 2, argv
        capsys.readouterr()
        # A config file naming a mode string fails cleanly, not late.
        payload = example_config()
        payload["engine"] = {"vectorize": "classes"}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        assert main(["recommend", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "vectorize" in err

    def test_no_vectorize_wins_over_vectorize_mode(self, tmp_path):
        from repro.cli import _engine_options

        payload = example_config()
        payload["engine"] = {"vectorize": True}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        args = build_parser().parse_args(
            ["recommend", "--config", str(path), "--no-vectorize"]
        )
        assert _engine_options(args).vectorize is False


class TestModuleSmoke:
    """`python -m repro.cli <command>` exits 0 on the bundled example config."""

    COMMON = ["--scale", "0.01", "--disks", "8", "--max-fragments", "20000"]

    @pytest.fixture
    def config_file(self, tmp_path):
        path = tmp_path / "example.json"
        path.write_text(json.dumps(example_config()))
        return str(path)

    def test_module_entrypoint_runs(self, config_file):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", "recommend", "--config", config_file, "--top", "2"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert "Top fragmentation candidates" in result.stdout

    @pytest.mark.parametrize("command", ["recommend", "report", "suggest"])
    def test_advisor_commands_exit_zero_on_example_config(self, command, config_file, capsys):
        assert main([command, "--config", config_file]) == 0
        assert capsys.readouterr().out

    def test_recommend_jobs_on_example_config(self, config_file, capsys):
        assert main(["recommend", "--config", config_file]) == 0
        assert "Top fragmentation candidates" in capsys.readouterr().out

    def test_malformed_workload_in_config_exits_2(self, tmp_path, capsys):
        payload = example_config()
        payload["workload"] = ["x"]
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(payload))
        assert main(["recommend", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "workload" in err


class TestConfigOverrides:
    """Explicit --disks/--architecture override the config file's system block."""

    @pytest.fixture
    def config_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(example_config()))
        return str(path)

    def test_config_system_block_is_the_default(self, config_file):
        args = build_parser().parse_args(["recommend", "--config", config_file])
        _schema, _workload, system = _resolve_inputs(args)
        # The example config declares 32 disks.
        assert system.num_disks == 32

    def test_explicit_disks_override_config(self, config_file):
        args = build_parser().parse_args(
            ["recommend", "--config", config_file, "--disks", "8"]
        )
        _schema, _workload, system = _resolve_inputs(args)
        assert system.num_disks == 8

    def test_explicit_architecture_overrides_config(self, config_file):
        args = build_parser().parse_args(
            ["recommend", "--config", config_file, "--architecture", "shared_everything"]
        )
        _schema, _workload, system = _resolve_inputs(args)
        assert system.architecture.value == "shared_everything"

    def test_overridden_config_run_exits_zero(self, config_file, capsys):
        code = main(
            ["recommend", "--config", config_file, "--disks", "8", "--top", "2"]
        )
        assert code == 0
        assert "Top fragmentation candidates" in capsys.readouterr().out

    @pytest.mark.parametrize("flag,value", [("--scale", "0.5"), ("--skew", "1.0")])
    def test_scale_and_skew_error_with_config(self, config_file, capsys, flag, value):
        # --scale/--skew shape the bundled datasets; they can never apply to
        # a config-file schema, so passing them is an error, not a silent no-op.
        code = main(["recommend", "--config", config_file, flag, value])
        assert code == 2
        err = capsys.readouterr().err
        assert flag in err and "--config" in err


class TestCacheDirFlags:
    COMMON = ["--scale", "0.01", "--disks", "16", "--max-fragments", "20000"]

    def test_cache_dir_defaults_to_env_var(self, monkeypatch):
        monkeypatch.setenv("WARLOCK_CACHE_DIR", "/tmp/warlock-cache")
        args = build_parser().parse_args(["recommend"])
        assert _engine_options(args).cache_dir == "/tmp/warlock-cache"

    def test_explicit_flag_overrides_env_var(self, monkeypatch):
        monkeypatch.setenv("WARLOCK_CACHE_DIR", "/tmp/warlock-cache")
        args = build_parser().parse_args(["recommend", "--cache-dir", "/tmp/flagged"])
        assert _engine_options(args).cache_dir == "/tmp/flagged"

    def test_cache_dir_defaults_to_none_without_env(self, monkeypatch):
        monkeypatch.delenv("WARLOCK_CACHE_DIR", raising=False)
        args = build_parser().parse_args(["recommend"])
        assert args.cache_dir is None
        assert args.no_cache_persist is False
        assert _engine_options(args).cache_dir is None

    def test_flags_in_help_text(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["recommend", "--help"])
        help_text = capsys.readouterr().out
        assert "--cache-dir" in help_text
        assert "--no-cache-persist" in help_text

    def test_warm_invocation_reports_disk_hits_and_matches_cold(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["recommend", *self.COMMON, "--json", "--cache-dir", cache_dir]) == 0
        captured = capsys.readouterr()
        cold = json.loads(captured.out)
        assert "persistent cache" in captured.err
        assert main(["recommend", *self.COMMON, "--json", "--cache-dir", cache_dir]) == 0
        captured = capsys.readouterr()
        warm = json.loads(captured.out)
        # The warm process answers the sweep from the disk store ...
        match = re.search(r"disk hits (\d+)/(\d+)", captured.err)
        assert match, captured.err
        hits, lookups = map(int, match.groups())
        assert lookups > 0 and hits / lookups >= 0.9
        # ... and its recommendation is identical to the cold run's.
        assert warm == cold

    def test_unwritable_store_is_reported_not_fatal(self, tmp_path, capsys):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("occupied")
        code = main(["recommend", *self.COMMON, "--cache-dir", str(blocker)])
        assert code == 0
        captured = capsys.readouterr()
        assert "Top fragmentation candidates" in captured.out
        assert "store not writable" in captured.err

    def test_no_cache_persist_disables_the_store(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        code = main(
            [
                "recommend",
                *self.COMMON,
                "--cache-dir",
                cache_dir,
                "--no-cache-persist",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "persistent cache" not in captured.err
        assert not (tmp_path / "cache").exists()

    def test_non_finite_budget_exits_2(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        code = main(
            ["recommend", *self.COMMON, "--cache-dir", cache_dir, "--cache-max-mb", "inf"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "cache").exists()


class TestEngineOptionsResolver:
    """One resolver, one precedence order: flags > env > config file > defaults."""

    COMMON = ["--scale", "0.01", "--disks", "16", "--max-fragments", "20000"]

    @pytest.fixture
    def config_file(self, tmp_path):
        payload = example_config()
        payload["engine"] = {
            "vectorize": False,
            "cache_dir": "/tmp/from-config",
            "cache_max_mb": 32,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_config_engine_block_supplies_defaults(self, config_file, monkeypatch):
        monkeypatch.delenv("WARLOCK_CACHE_DIR", raising=False)
        args = build_parser().parse_args(["recommend", "--config", config_file])
        options = _engine_options(args)
        assert options.cache_max_mb == 32
        assert options.vectorize is False
        assert options.cache_dir == "/tmp/from-config"

    def test_flags_override_config(self, config_file, monkeypatch):
        monkeypatch.delenv("WARLOCK_CACHE_DIR", raising=False)
        args = build_parser().parse_args(
            ["recommend", "--config", config_file, "--cache-max-mb", "8",
             "--cache-dir", "/tmp/from-flag"]
        )
        options = _engine_options(args)
        assert options.cache_max_mb == 8
        assert options.cache_dir == "/tmp/from-flag"

    def test_env_overrides_config_but_not_flags(self, config_file, monkeypatch):
        monkeypatch.setenv("WARLOCK_CACHE_DIR", "/tmp/from-env")
        args = build_parser().parse_args(["recommend", "--config", config_file])
        assert _engine_options(args).cache_dir == "/tmp/from-env"
        args = build_parser().parse_args(
            ["recommend", "--config", config_file, "--cache-dir", "/tmp/from-flag"]
        )
        assert _engine_options(args).cache_dir == "/tmp/from-flag"

    def test_unknown_engine_key_in_config_errors(self, tmp_path, capsys):
        # A typo, and options that no longer exist.
        for engine in ({"job": 2}, {"fabric": "127.0.0.1:0"}, {"jobs": 2}):
            payload = example_config()
            payload["engine"] = engine
            path = tmp_path / "config.json"
            path.write_text(json.dumps(payload))
            assert main(["recommend", "--config", str(path)]) == 2, engine
            assert "unknown engine option" in capsys.readouterr().err

    def test_no_cache_persist_without_a_dir_errors_on_every_subcommand(
        self, monkeypatch, capsys
    ):
        monkeypatch.delenv("WARLOCK_CACHE_DIR", raising=False)
        for command in ("recommend", "analyze", "report", "simulate", "suggest", "tune"):
            code = main([command, *self.COMMON, "--no-cache-persist"])
            assert code == 2, command
            err = capsys.readouterr().err
            assert "--no-cache-persist" in err and "nothing to disable" in err

    def test_no_cache_persist_with_env_dir_is_valid(self, monkeypatch, capsys):
        monkeypatch.setenv("WARLOCK_CACHE_DIR", "/tmp/warlock-unused")
        args = build_parser().parse_args(["recommend", "--no-cache-persist"])
        assert _engine_options(args).cache_dir is None


class TestProgressFlag:
    COMMON = ["--scale", "0.01", "--disks", "16", "--max-fragments", "20000"]

    def test_progress_flag_in_help_text(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["recommend", "--help"])
        assert "--progress" in capsys.readouterr().out

    def test_progress_meter_renders_and_completes(self, capsys):
        assert main(["recommend", *self.COMMON, "--progress", "--top", "3"]) == 0
        captured = capsys.readouterr()
        assert "Top fragmentation candidates" in captured.out
        assert "warlock: evaluate" in captured.err
        # The meter's final update reports the full sweep (completed == total).
        last = captured.err.rstrip().splitlines()[-1].split("\r")[-1]
        assert re.search(r"evaluate (\d+)/(\1) candidates", last), last

    def test_progress_off_by_default(self, capsys):
        assert main(["recommend", *self.COMMON, "--top", "3"]) == 0
        assert "warlock: evaluate" not in capsys.readouterr().err

    def test_non_tty_meter_emits_newline_records_without_cr(self, capsys):
        # Regression: the meter used to print carriage-returned frames
        # unconditionally, so redirected stderr (CI logs, `2>file`) collected
        # one garbled line.  Without a TTY every event must be its own
        # newline-terminated record and no \r may appear at all.
        assert not sys.stderr.isatty()  # capsys replaces stderr with a pipe
        assert main(["recommend", *self.COMMON, "--progress", "--top", "3"]) == 0
        err = capsys.readouterr().err
        assert "\r" not in err
        frames = [line for line in err.splitlines() if line.startswith("warlock: ")]
        assert len(frames) > 1  # one record per chunk, not one mutated line

    def test_tty_meter_animates_with_carriage_returns(self, capsys, monkeypatch):
        from repro.api import ProgressEvent
        from repro.cli import _progress_meter, build_parser

        monkeypatch.setattr(sys.stderr, "isatty", lambda: True, raising=False)
        args = build_parser().parse_args(["recommend", "--progress"])
        meter = _progress_meter(args)
        meter(ProgressEvent(phase="evaluate", completed=1, total=2, chunk=1,
                            num_chunks=2, completed_units=6, total_units=12))
        meter(ProgressEvent(phase="evaluate", completed=2, total=2, chunk=2,
                            num_chunks=2, completed_units=12, total_units=12))
        err = capsys.readouterr().err
        # Animated frames share one line (\r prefix); only the final,
        # complete frame ends with a newline so the result starts clean.
        assert err.startswith("\r")
        assert err.count("\r") == 2
        assert err.endswith("\n") and err.count("\n") == 1


class TestSigintCancellation:
    COMMON = ["--scale", "0.01", "--disks", "16", "--max-fragments", "20000"]

    def test_first_sigint_cancels_token_second_raises(self):
        import signal as signal_module

        from repro.api import CancellationToken
        from repro.cli import _install_sigint

        token = CancellationToken()
        restore = _install_sigint(token)
        try:
            handler = signal_module.getsignal(signal_module.SIGINT)
            handler(signal_module.SIGINT, None)
            assert token.cancelled  # first Ctrl-C: cooperative cancel
            with pytest.raises(KeyboardInterrupt):
                handler(signal_module.SIGINT, None)  # second: escape hatch
        finally:
            restore()

    def test_cancelled_run_exits_130_with_a_message(self, capsys, monkeypatch):
        from repro.api import AdvisorSession
        from repro.errors import EvaluationCancelled

        def cancelled(self, **kwargs):
            raise EvaluationCancelled("sweep cancelled at chunk 3/9")

        monkeypatch.setattr(AdvisorSession, "recommend", cancelled)
        assert main(["recommend", *self.COMMON]) == 130
        err = capsys.readouterr().err
        assert "warlock: cancelled" in err
        assert "chunk 3/9" in err

    def test_off_main_thread_install_is_a_noop(self):
        import threading

        from repro.api import CancellationToken
        from repro.cli import _install_sigint

        outcome = {}

        def run():
            restore = _install_sigint(CancellationToken())
            outcome["restored"] = restore()  # must not raise

        thread = threading.Thread(target=run)
        thread.start()
        thread.join()
        assert "restored" in outcome


class TestServeParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8642
        assert args.max_sessions == 8
        assert args.idle_timeout is None
        assert args.request_workers == 4
        assert args.queue_capacity == 64
        assert args.warehouse is None

    def test_serve_accepts_the_common_flag_stack(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--warehouse", "shop", "--dataset", "retail",
             "--disks", "32", "--no-vectorize", "--max-sessions", "2",
             "--idle-timeout", "30", "--request-workers", "8"]
        )
        assert args.warehouse == "shop"
        assert args.dataset == "retail"
        assert args.idle_timeout == 30.0
        # The serve command rides the same EngineOptions resolver stack.
        assert _engine_options(args).vectorize is False

    def test_serve_request_timeout_flag(self):
        args = build_parser().parse_args(["serve", "--request-timeout", "30"])
        assert args.request_timeout == 30.0
        args = build_parser().parse_args(["serve"])
        assert args.request_timeout is None


class TestSimulateUsesEvaluatedPrefetch:
    COMMON = ["--scale", "0.01", "--disks", "16", "--max-fragments", "20000"]

    def test_simulate_reuses_the_candidate_prefetch(self, monkeypatch, capsys):
        # The evaluation already resolved the candidate's prefetch setting;
        # re-deriving it from scratch through the scalar path was wasted
        # recomputation and a second code path that could drift.  The spy
        # asserts the simulator receives the exact setting object the
        # evaluation attached to the candidate.
        from repro.simulation import DiskSimulator

        seen = {}
        original = DiskSimulator.run_workload

        def spy(self, layout, workload, scheme, allocation, prefetch, **kwargs):
            seen["prefetch"] = prefetch
            seen["layout"] = layout
            return original(self, layout, workload, scheme, allocation, prefetch, **kwargs)

        monkeypatch.setattr(DiskSimulator, "run_workload", spy)
        assert main(["simulate", *self.COMMON, "--queries", "1"]) == 0
        assert "Simulated workload" in capsys.readouterr().out
        # Same inputs, same pipeline: the simulated prefetch must be the one
        # the (deterministic) evaluation resolved for the best candidate.
        from repro.cli import _advisor

        args = build_parser().parse_args(["simulate", *self.COMMON, "--queries", "1"])
        candidate = _advisor(args).recommend().recommendation.best
        assert seen["prefetch"] == candidate.prefetch
        assert seen["layout"].spec.label == candidate.label

    def test_cli_no_longer_rederives_prefetch(self):
        # The old code path imported resolve_prefetch_setting to recompute
        # the setting the evaluation had already resolved; its absence pins
        # the single-code-path fix.
        import repro.cli as cli_module

        assert not hasattr(cli_module, "resolve_prefetch_setting")


class TestConfigFile:
    def test_roundtrip_through_json_config(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(example_config()))
        schema, workload, system = load_config(str(config_path))
        assert schema.name == "my_warehouse"
        assert len(workload) == 2
        assert system.num_disks == 32
        workload.validate(schema)

    def test_cli_with_config_file(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(example_config()))
        assert main(["recommend", "--config", str(config_path), "--top", "3"]) == 0
        assert "Top fragmentation candidates" in capsys.readouterr().out
