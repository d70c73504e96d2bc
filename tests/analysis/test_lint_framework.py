"""The lint framework: findings, discovery, rule dispatch."""

from __future__ import annotations

import json
import os
import textwrap

from repro.analysis.lint import (
    SYNTAX_RULE,
    Checker,
    Finding,
    Project,
    SourceFile,
    discover_files,
    find_root,
    json_payload,
    run_lint,
)

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..")
)


class AlwaysFlag(Checker):
    """Test rule: flags every function definition."""

    rule_id = "T1"
    name = "always-flag"
    description = "flags every def"
    paths = ("src/",)

    def check(self, module):
        import ast

        for node in ast.walk(module.tree):
            if isinstance(node, ast.FunctionDef):
                yield self.finding(module, node, f"def {node.name}")


def write(root, relpath, body):
    path = os.path.join(root, relpath)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(textwrap.dedent(body).lstrip("\n"))
    return relpath


class TestFinding:
    def test_format_is_clickable(self):
        item = Finding("R3", "src/a.py", 10, 4, "nope")
        assert item.format() == "src/a.py:10:4: R3 nope"

    def test_json_round_trip(self):
        item = Finding("R2", "src/b.py", 3, 0, "unclassified")
        assert Finding(**item.to_json()) == item

    def test_payload_schema_round_trips(self):
        findings = [
            Finding("R2", "src/b.py", 3, 0, "one"),
            Finding("R3", "src/c.py", 9, 2, "two"),
        ]
        payload = json.loads(json.dumps(json_payload(findings, [AlwaysFlag()])))
        assert payload["count"] == 2
        assert [Finding(**entry) for entry in payload["findings"]] == findings
        assert payload["rules"]["T1"]["name"] == "always-flag"


class TestDiscovery:
    def test_repo_discovery_excludes_fixtures(self):
        files = discover_files(REPO_ROOT)
        assert "src/repro/analysis/lint.py" in files
        assert all("tests/analysis/fixtures" not in name for name in files)
        assert files == sorted(files)

    def test_only_python_files(self, tmp_path):
        write(tmp_path, "src/a.py", "x = 1")
        write(tmp_path, "src/notes.txt", "hi")
        write(tmp_path, "tests/test_a.py", "y = 2")
        assert discover_files(str(tmp_path)) == [
            "src/a.py", "tests/test_a.py",
        ]

    def test_find_root_walks_up(self):
        nested = os.path.join(REPO_ROOT, "src", "repro", "nn")
        assert find_root(nested) == REPO_ROOT


class TestRunLint:
    def test_syntax_error_is_reported(self, tmp_path):
        rel = write(tmp_path, "src/broken.py", "def broken(:\n")
        findings = run_lint(str(tmp_path), files=[rel], rules=[AlwaysFlag()])
        assert [item.rule for item in findings] == [SYNTAX_RULE]

    def test_paths_scoping_applies_to_discovery_only(self, tmp_path):
        write(tmp_path, "src/a.py", "def a():\n    pass\n")
        write(tmp_path, "tests/test_a.py", "def b():\n    pass\n")
        discovered = run_lint(str(tmp_path), rules=[AlwaysFlag()])
        assert [item.path for item in discovered] == ["src/a.py"]
        explicit = run_lint(
            str(tmp_path), files=["tests/test_a.py"], rules=[AlwaysFlag()]
        )
        assert [item.path for item in explicit] == ["tests/test_a.py"]

    def test_findings_sorted_deterministically(self, tmp_path):
        write(tmp_path, "src/b.py", "def z():\n    pass\n")
        write(tmp_path, "src/a.py", "def z():\n    pass\ndef y():\n    pass\n")
        findings = run_lint(str(tmp_path), rules=[AlwaysFlag()])
        assert [(item.path, item.line) for item in findings] == [
            ("src/a.py", 1), ("src/a.py", 3), ("src/b.py", 1),
        ]


class TestProjectCache:
    def test_source_files_cached_per_path(self, tmp_path):
        write(tmp_path, "src/a.py", "x = 1")
        project = Project(str(tmp_path))
        assert project.file("src/a.py") is project.file("src/a.py")

    def test_missing_module_is_none(self, tmp_path):
        assert Project(str(tmp_path)).module("src/nope.py") is None

    def test_sourcefile_normalises_separators(self, tmp_path):
        write(tmp_path, "src/a.py", "x = 1")
        module = SourceFile(str(tmp_path), os.path.join("src", "a.py"))
        assert module.relpath == "src/a.py"
        assert module.source == "x = 1"
