"""The ``repro lint`` CLI surface: dispatch, exit codes, JSON output."""

from __future__ import annotations

import json
import os
import shutil

import pytest

import repro.cli
from repro.analysis.lint import EXIT_FINDINGS, Finding
from repro.analysis.lint import main as lint_main

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..")
)
R2_BAD = os.path.join(REPO_ROOT, "tests/analysis/fixtures/r2_bad.py")


@pytest.fixture()
def in_repo(monkeypatch):
    monkeypatch.chdir(REPO_ROOT)


class TestDispatch:
    def test_repro_cli_routes_lint_subcommand(self, in_repo, capsys):
        status = repro.cli.main(["lint", "--list-rules"])
        assert status == 0
        out = capsys.readouterr().out
        for rule_id in ["R1", "R2", "R3", "R4", "R6", "R7"]:
            assert rule_id in out

    def test_lint_listed_in_cli_help(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            repro.cli.main(["--help"])
        assert excinfo.value.code == 0
        assert "lint" in capsys.readouterr().out


class TestExitCodes:
    def test_repo_self_lint_is_clean_and_strict(self, in_repo, capsys):
        status = repro.cli.main(["lint", "--strict"])
        err = capsys.readouterr().err
        assert status == 0
        assert "0 finding(s)" in err
        assert "6 rule(s) active" in err

    def test_findings_exit_five(self, in_repo, capsys):
        status = repro.cli.main(["lint", "--select", "R2", R2_BAD])
        out = capsys.readouterr().out
        assert status == EXIT_FINDINGS
        assert "R2" in out
        assert "tests/analysis/fixtures/r2_bad.py:28" in out

    def test_unknown_rule_is_usage_error(self, in_repo, capsys):
        status = lint_main(["--select", "R99"])
        assert status == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_missing_file_is_usage_error(self, in_repo, capsys):
        status = lint_main(["src/does_not_exist.py"])
        assert status == 2
        assert "no such file" in capsys.readouterr().err

    def test_changed_conflicts_with_paths(self, in_repo, capsys):
        status = lint_main(["--changed", R2_BAD])
        assert status == 2
        assert "mutually exclusive" in capsys.readouterr().err


class TestJsonOutput:
    def test_schema_and_round_trip(self, in_repo, capsys):
        status = lint_main(["--json", "--select", "R2", R2_BAD])
        assert status == EXIT_FINDINGS
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"count", "findings", "rules"}
        assert payload["count"] == len(payload["findings"]) == 3
        findings = [Finding.from_json(item) for item in payload["findings"]]
        assert {item.rule for item in findings} == {"R2"}
        assert payload["rules"]["R2"]["name"]
        assert payload["rules"]["R2"]["description"]

    def test_clean_run_emits_empty_report(self, in_repo, capsys):
        status = lint_main(["--json", "--select", "R6"])
        assert status == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 0
        assert payload["findings"] == []
        assert list(payload["rules"]) == ["R6"]


class TestR2Acceptance:
    """Adding an unclassified ExperimentConfig field must fail the lint."""

    def test_new_field_trips_r2(self, tmp_path, capsys):
        source = os.path.join(REPO_ROOT, "src/repro/experiments/common.py")
        target = tmp_path / "src" / "repro" / "experiments" / "common.py"
        target.parent.mkdir(parents=True)
        shutil.copy(source, target)
        with open(target, "r", encoding="utf-8") as handle:
            text = handle.read()
        marker = "    images_per_class: int = 30"
        assert marker in text
        text = text.replace(
            marker, "    mystery_knob: float = 0.5\n" + marker, 1
        )
        with open(target, "w", encoding="utf-8") as handle:
            handle.write(text)

        status = lint_main([
            "--root", str(tmp_path), "--select", "R2", "--json",
            str(target),
        ])
        payload = json.loads(capsys.readouterr().out)
        assert status == EXIT_FINDINGS
        assert payload["count"] == 1
        finding = payload["findings"][0]
        assert finding["rule"] == "R2"
        assert "mystery_knob" in finding["message"]

    def test_pristine_config_passes_r2(self, capsys):
        source = os.path.join(REPO_ROOT, "src/repro/experiments/common.py")
        status = lint_main(
            ["--root", REPO_ROOT, "--select", "R2", source]
        )
        capsys.readouterr()
        assert status == 0
