"""Tests for ``warlock lint``: framework, rules, suppressions, baseline, CLI.

Every rule is proven twice — a *bad* fixture under ``tests/lint_fixtures/``
must produce findings (the rule detects its target pattern) and an *ok*
fixture must stay clean (the rule does not cry wolf on the idiomatic
spelling).  On top of that, the final tree itself must lint clean: the
self-check test runs the full rule set over ``src/repro`` exactly like the
CI gate does.
"""

from __future__ import annotations

import json
import os
import subprocess

import pytest

from repro.lint import LintError, run_lint
from repro.lint.baseline import load_baseline, split_findings, write_baseline
from repro.lint.framework import ModuleInfo, RULES
from repro.lint.runner import main as lint_main

FIXTURES = os.path.join(os.path.dirname(__file__), "lint_fixtures")
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "repro")


def fixture(name: str) -> str:
    return os.path.join(FIXTURES, name)


def findings_for(path: str, rule: str):
    result = run_lint([path, fixture("lock_discipline_classes.py")], [rule])
    return [f for f in result.findings if f.path.endswith(os.path.basename(path))]


RULE_FIXTURES = [
    ("numeric-determinism", "numeric_determinism", 4),
    ("lock-discipline", "lock_discipline", 1),
    ("boundary-serialization", "picklability", 5),
    ("wire-contract", "wire_contract", 2),
]

# The graph rules run over whole fixture *projects* (packages with internal
# imports), not single files — lexical fixtures cannot exercise them.
PROJECT_FIXTURES = [
    ("layering", "layering_project", 1),
    ("determinism-taint", "taint_project", 1),
    ("boundary-serialization", "boundary_project", 5),
]


class TestRules:
    @pytest.mark.parametrize("rule,stem,expected", RULE_FIXTURES)
    def test_bad_fixture_is_detected(self, rule, stem, expected):
        found = findings_for(fixture(f"{stem}_bad.py"), rule)
        assert len(found) == expected
        assert all(f.rule == rule for f in found)
        assert all(f.snippet for f in found)

    @pytest.mark.parametrize("rule,stem,expected", RULE_FIXTURES)
    def test_ok_fixture_is_clean(self, rule, stem, expected):
        assert findings_for(fixture(f"{stem}_ok.py"), rule) == []

    def test_rule_selection_is_scoped(self):
        # Only the requested rule runs: the picklability fixture holds no
        # numeric-determinism positives, so a scoped run is empty.
        result = run_lint([fixture("picklability_bad.py")], ["numeric-determinism"])
        assert result.findings == []
        assert result.rules == ("numeric-determinism",)

    def test_unknown_rule_is_an_error(self):
        with pytest.raises(LintError, match="unknown rule"):
            run_lint([FIXTURES], ["no-such-rule"])

    def test_all_registered_rules_are_covered_by_fixtures(self):
        run_lint([fixture("picklability_ok.py")])  # populate the registry
        covered = {rule for rule, _, _ in RULE_FIXTURES}
        covered |= {rule for rule, _, _ in PROJECT_FIXTURES}
        assert set(RULES) == covered


class TestGraphRules:
    @pytest.mark.parametrize("rule,project,expected", PROJECT_FIXTURES)
    def test_bad_project_is_detected(self, rule, project, expected):
        result = run_lint([fixture(project)], [rule])
        assert len(result.findings) == expected
        assert all(f.rule == rule for f in result.findings)
        assert all(f.snippet for f in result.findings)

    def test_layering_flags_only_the_module_level_upward_import(self):
        # lp.costmodel (layer 0) imports lp.service (layer 3) at module
        # level; lp.engine reaches lp.service too, but through a lazy
        # (function-scope) import — the sanctioned escape hatch stays clean.
        result = run_lint([fixture("layering_project")], ["layering"])
        (finding,) = result.findings
        assert finding.path.endswith(os.path.join("costmodel", "__init__.py"))
        assert "upward import" in finding.message
        assert "lp.costmodel (layer 0)" in finding.message
        assert "lp.service (layer 3)" in finding.message

    def test_layering_flags_module_level_import_cycles(self):
        result = run_lint([fixture("cycle_project")], ["layering"])
        (finding,) = result.findings
        assert "import cycle" in finding.message
        assert "cyc.alpha -> cyc.beta -> cyc.alpha" in finding.message

    def test_taint_finding_records_the_full_chain(self):
        # model.evaluate -> helpers.stamp_metrics -> helpers.annotate ->
        # time.time(); the sorted(os.listdir()) helper and the unreachable
        # random.random() stay clean (one finding total).
        result = run_lint([fixture("taint_project")], ["determinism-taint"])
        (finding,) = result.findings
        assert "time.time()" in finding.message
        assert "tp.costmodel.model:evaluate" in finding.message
        assert len(finding.chain) == 4
        assert "[parity-critical]" in finding.chain[0]
        assert "tp.helpers:stamp_metrics" in finding.chain[1]
        assert "tp.helpers:annotate" in finding.chain[2]
        assert finding.chain[3].startswith("-> time.time()")

    def test_boundary_findings_cover_each_hazard(self):
        result = run_lint([fixture("boundary_project")], ["boundary-serialization"])
        messages = [f.message for f in result.findings]
        assert len(messages) == 5
        for expected in [
            "lambda reaches the cache-store pickle/npz path via bp.tasks:spill",
            "nested function 'add_one' reaches the process-pool boundary",
            "module-level mutable 'SHARED_STATE'",
            "dataclass bp.models:Config crosses the JSON wire format",
            "open() handle reaches the cache-store pickle/npz path",
        ]:
            assert any(expected in message for message in messages), expected


class TestSuppressions:
    def test_trailing_and_standalone_suppressions(self):
        result = run_lint(
            [
                fixture("lock_discipline_suppressed.py"),
                fixture("lock_discipline_classes.py"),
            ],
            ["lock-discipline"],
        )
        # Both spellings (same-line and preceding-line) silence the finding;
        # the run still reports how many were suppressed.
        assert result.findings == []
        assert result.suppressed == 2

    def test_suppression_is_per_rule(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text(
            "# lint: parity-critical\n"
            "import math\n"
            "x = math.pow(2.0, 3.0)  # lint: disable=wire-contract -- wrong rule\n"
        )
        result = run_lint([str(path)])
        assert [f.rule for f in result.findings] == ["numeric-determinism"]
        assert result.suppressed == 0

    def test_unknown_directive_is_an_error(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text("# lint: frobnicate\n")
        with pytest.raises(LintError, match="unknown lint directive"):
            run_lint([str(path)])


class TestBaseline:
    def test_round_trip_baselines_every_finding(self, tmp_path):
        result = run_lint([fixture("numeric_determinism_bad.py")])
        assert result.findings
        baseline_path = str(tmp_path / "baseline.json")
        write_baseline(baseline_path, result.findings)
        allowed = load_baseline(baseline_path)
        new, baselined = split_findings(result.findings, allowed)
        assert new == []
        assert len(baselined) == len(result.findings)

    def test_new_findings_are_not_absorbed(self, tmp_path):
        numeric = run_lint([fixture("numeric_determinism_bad.py")])
        baseline_path = str(tmp_path / "baseline.json")
        write_baseline(baseline_path, numeric.findings)
        both = run_lint(
            [
                fixture("numeric_determinism_bad.py"),
                fixture("picklability_bad.py"),
            ]
        )
        new, baselined = split_findings(both.findings, load_baseline(baseline_path))
        assert len(baselined) == len(numeric.findings)
        assert {f.rule for f in new} == {"boundary-serialization"}

    def test_fingerprints_survive_reordering(self):
        # Fingerprints carry no line numbers: the same offending line at a
        # different position still matches its baseline entry.
        first = ModuleInfo("mod.py", "# lint: parity-critical\nx = 2.0 ** 8\n")
        second = ModuleInfo("mod.py", "# lint: parity-critical\n\n\nx = 2.0 ** 8\n")

        def fingerprint(module):
            rule = RULES["numeric-determinism"]()
            from repro.lint.framework import ProjectIndex

            (finding,) = list(rule.check(module, ProjectIndex()))
            return finding.fingerprint

        assert fingerprint(first) == fingerprint(second)

    def test_identical_lines_get_distinct_fingerprints(self, tmp_path):
        # Two byte-identical offending lines used to collapse onto one
        # fingerprint, so baselining the first silently absorbed the second;
        # the occurrence index keeps them apart.
        path = tmp_path / "mod.py"
        path.write_text(
            "# lint: parity-critical\n"
            "import math\n"
            "x = math.pow(2.0, 3.0)\n"
            "x = math.pow(2.0, 3.0)\n"
        )
        result = run_lint([str(path)], ["numeric-determinism"])
        first, second = result.findings
        assert first.snippet == second.snippet
        assert first.fingerprint != second.fingerprint
        assert second.fingerprint == f"{first.fingerprint}#2"

    def test_baseline_absorbs_occurrences_one_by_one(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text(
            "# lint: parity-critical\n"
            "import math\n"
            "x = math.pow(2.0, 3.0)\n"
            "x = math.pow(2.0, 3.0)\n"
        )
        result = run_lint([str(path)], ["numeric-determinism"])
        baseline_path = str(tmp_path / "baseline.json")
        # Baseline holding only the first occurrence absorbs exactly one.
        write_baseline(baseline_path, result.findings[:1])
        new, baselined = split_findings(
            result.findings, load_baseline(baseline_path)
        )
        assert len(baselined) == 1
        assert len(new) == 1
        # Baselining both absorbs both.
        write_baseline(baseline_path, result.findings)
        new, baselined = split_findings(
            result.findings, load_baseline(baseline_path)
        )
        assert new == []
        assert len(baselined) == 2

    def test_missing_baseline_means_empty(self, tmp_path):
        assert load_baseline(str(tmp_path / "absent.json")) == {}

    def test_corrupt_baseline_is_an_error(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text("not json")
        with pytest.raises(LintError, match="cannot read baseline"):
            load_baseline(str(path))


class TestSelfCheck:
    def test_src_repro_lints_clean(self):
        """The committed tree holds zero findings — the CI gate's invariant."""
        result = run_lint([SRC])
        assert result.findings == [], "\n".join(
            f.describe() for f in result.findings
        )
        # The one deliberate suppression (registry eviction) is documented.
        assert result.suppressed >= 1

    def test_committed_baseline_is_empty(self):
        repo_root = os.path.join(os.path.dirname(__file__), os.pardir)
        allowed = load_baseline(os.path.join(repo_root, "lint-baseline.json"))
        assert allowed == {}


class TestCommandLine:
    def test_module_entry_point_reports_json(self, tmp_path, capsys):
        baseline = str(tmp_path / "baseline.json")
        code = lint_main(
            [
                fixture("picklability_bad.py"),
                "--format",
                "json",
                "--baseline",
                baseline,
            ]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["new"] == 5
        assert all(
            f["rule"] == "boundary-serialization" for f in payload["findings"]
        )

    def test_write_baseline_then_gate_passes(self, tmp_path, capsys):
        baseline = str(tmp_path / "baseline.json")
        target = fixture("picklability_bad.py")
        assert lint_main([target, "--baseline", baseline, "--write-baseline"]) == 0
        capsys.readouterr()
        assert lint_main([target, "--baseline", baseline]) == 0
        out = capsys.readouterr().out
        assert "[baselined]" in out

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule, _, _ in RULE_FIXTURES + PROJECT_FIXTURES:
            assert rule in out

    def test_graph_dot_renders_import_edges(self, capsys):
        assert lint_main([fixture("graph_project"), "--graph", "dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph imports {")
        assert '"gp.relative" -> "gp.core"' in out
        assert '"gp.star" -> "gp.core"' in out

    def test_graph_dot_marks_lazy_edges_dashed(self, capsys):
        assert lint_main([fixture("layering_project"), "--graph", "dot"]) == 0
        out = capsys.readouterr().out
        assert '"lp.costmodel" -> "lp.service";' in out
        assert '"lp.engine" -> "lp.service" [style=dashed' in out

    def test_graph_json_summarizes_both_graphs(self, capsys):
        assert lint_main([fixture("graph_project"), "--graph", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "gp.core" in payload["modules"]
        assert payload["summary"]["functions"] >= 5

    def test_explain_prints_the_source_to_sink_chain(self, capsys):
        result = run_lint([fixture("taint_project")], ["determinism-taint"])
        (finding,) = result.findings
        code = lint_main(
            [
                fixture("taint_project"),
                "--rule",
                "determinism-taint",
                "--explain",
                finding.fingerprint,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "tp.costmodel.model:evaluate" in out
        assert "[parity-critical]" in out
        assert "-> tp.helpers:stamp_metrics" in out
        assert "-> tp.helpers:annotate" in out
        assert "-> time.time() at" in out

    def test_explain_unknown_fingerprint_exits_2(self, capsys):
        assert lint_main([fixture("taint_project"), "--explain", "nope"]) == 2

    def test_bad_path_exits_2(self, capsys):
        assert lint_main(["definitely/not/a/path"]) == 2

    def test_cli_subcommand_is_wired(self, capsys):
        from repro.cli import main as cli_main

        code = cli_main(["lint", fixture("wire_contract_ok.py")])
        assert code == 0
        assert "0 findings" in capsys.readouterr().out


VIOLATION = "# lint: parity-critical\nimport math\nx = math.pow(2.0, 3.0)\n"


def _git(repo, *arguments):
    subprocess.run(
        ["git", *arguments],
        cwd=str(repo),
        check=True,
        capture_output=True,
        text=True,
    )


@pytest.fixture
def git_repo(tmp_path):
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "config", "user.email", "lint@example.com")
    _git(tmp_path, "config", "user.name", "lint")
    return tmp_path


class TestGitScoping:
    def test_changed_reports_only_uncommitted_files(
        self, git_repo, monkeypatch, capsys
    ):
        (git_repo / "committed.py").write_text(VIOLATION)
        _git(git_repo, "add", "committed.py")
        _git(git_repo, "commit", "-q", "-m", "seed")
        (git_repo / "fresh.py").write_text(VIOLATION)
        monkeypatch.chdir(git_repo)

        code = lint_main(
            [".", "--changed", "--format", "json", "--baseline", "absent.json"]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["new"] == 1
        assert all(f["path"].endswith("fresh.py") for f in payload["findings"])

    def test_changed_with_a_clean_tree_passes(self, git_repo, monkeypatch, capsys):
        (git_repo / "committed.py").write_text(VIOLATION)
        _git(git_repo, "add", "committed.py")
        _git(git_repo, "commit", "-q", "-m", "seed")
        monkeypatch.chdir(git_repo)

        # The violation exists but is committed: nothing is in scope.
        code = lint_main([".", "--changed", "--baseline", "absent.json"])
        assert code == 0
        # Without scoping the same run fails.
        capsys.readouterr()
        assert lint_main([".", "--baseline", "absent.json"]) == 1

    def test_since_scopes_to_files_changed_after_the_revision(
        self, git_repo, monkeypatch, capsys
    ):
        (git_repo / "old.py").write_text(VIOLATION)
        _git(git_repo, "add", "old.py")
        _git(git_repo, "commit", "-q", "-m", "first")
        (git_repo / "new.py").write_text(VIOLATION)
        _git(git_repo, "add", "new.py")
        _git(git_repo, "commit", "-q", "-m", "second")
        monkeypatch.chdir(git_repo)

        code = lint_main(
            [
                ".",
                "--since",
                "HEAD~1",
                "--format",
                "json",
                "--baseline",
                "absent.json",
            ]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["new"] == 1
        assert all(f["path"].endswith("new.py") for f in payload["findings"])
