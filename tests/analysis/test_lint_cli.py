"""The ``repro lint`` CLI surface: dispatch, exit codes, JSON output."""

from __future__ import annotations

import json
import os
import shutil

import pytest

import repro.cli
from repro.analysis.lint import EXIT_FINDINGS, Finding, run_lint
from repro.analysis.lint_rules import all_checkers

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..")
)
RULES = {checker.rule_id: checker for checker in all_checkers()}


@pytest.fixture()
def in_repo(monkeypatch):
    monkeypatch.chdir(REPO_ROOT)


@pytest.fixture()
def in_bad_tree(tmp_path, monkeypatch):
    """A copy of the R1-clean fixture tree plus one R3 violation, as cwd."""
    root = tmp_path / "proj"
    shutil.copytree(
        os.path.join(REPO_ROOT, "tests/analysis/fixtures/r1_project"), root
    )
    (root / "src" / "repro" / "worker.py").write_text(
        "import numpy as np\n\n\ndef draw():\n"
        "    return np.random.default_rng()\n",
        encoding="utf-8",
    )
    monkeypatch.chdir(root)
    return str(root)


class TestDispatch:
    def test_repro_cli_routes_lint_subcommand(self, in_repo, capsys):
        status = repro.cli.main(["lint", "--json"])
        assert status == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload["rules"]) == ["R1", "R2", "R3", "R4", "R6", "R7"]

    def test_lint_listed_in_cli_help(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            repro.cli.main(["--help"])
        assert excinfo.value.code == 0
        assert "lint" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["--strict"],
        ["--changed"],
        ["--select", "R2"],
        ["--list-rules"],
        ["--root", "."],
        ["src/repro/cli.py"],
    ], ids=["strict", "changed", "select", "list-rules", "root", "path"])
    def test_removed_option_is_usage_error(self, in_repo, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            repro.cli.main(["lint", *argv])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestExitCodes:
    def test_repo_self_lint_is_clean_and_strict(self, in_repo, capsys):
        status = repro.cli.main(["lint"])
        output = capsys.readouterr()
        assert status == 0
        assert output.out == ""
        assert output.err == (
            "repro lint: 0 finding(s) over src/ and tests/ "
            "(6 rule(s) active)\n"
        )

    def test_findings_exit_five(self, in_bad_tree, capsys):
        status = repro.cli.main(["lint"])
        output = capsys.readouterr()
        assert status == EXIT_FINDINGS
        assert output.out.startswith("src/repro/worker.py:5:11: R3 ")
        assert "1 finding(s)" in output.err


class TestJsonOutput:
    def test_schema_and_round_trip(self, in_bad_tree, capsys):
        status = repro.cli.main(["lint", "--json"])
        assert status == EXIT_FINDINGS
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"count", "findings", "rules"}
        assert payload["count"] == len(payload["findings"]) == 1
        findings = [Finding(**item) for item in payload["findings"]]
        assert findings == run_lint(in_bad_tree)
        assert findings[0].rule == "R3"

    def test_clean_run_emits_empty_report(self, in_repo, capsys):
        status = repro.cli.main(["lint", "--json"])
        assert status == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 0
        assert payload["findings"] == []
        for entry in payload["rules"].values():
            assert entry["name"]
            assert entry["description"]


class TestR2Acceptance:
    """Adding an unclassified ExperimentConfig field must fail the lint."""

    RELPATH = "src/repro/experiments/common.py"

    def test_new_field_trips_r2(self, tmp_path):
        target = tmp_path / self.RELPATH
        target.parent.mkdir(parents=True)
        shutil.copy(os.path.join(REPO_ROOT, self.RELPATH), target)
        with open(target, "r", encoding="utf-8") as handle:
            text = handle.read()
        marker = "    images_per_class: int = 30"
        assert marker in text
        text = text.replace(
            marker, "    mystery_knob: float = 0.5\n" + marker, 1
        )
        with open(target, "w", encoding="utf-8") as handle:
            handle.write(text)

        findings = run_lint(
            str(tmp_path), files=[self.RELPATH], rules=[RULES["R2"]]
        )
        assert len(findings) == 1
        finding = findings[0]
        assert finding.rule == "R2"
        assert "mystery_knob" in finding.message

    def test_pristine_config_passes_r2(self):
        findings = run_lint(
            REPO_ROOT, files=[self.RELPATH], rules=[RULES["R2"]]
        )
        assert findings == []
