"""Every lint rule against its fixtures: detect, suppress, clean."""

from __future__ import annotations

import ast
import os
import shutil

import pytest

from repro.analysis.lint import Project, discover_files, run_lint
from repro.analysis.lint_rules import (
    FAST_PATHS,
    NUMBERS_AFFECTING_FIELDS,
    POOL_FACTORY,
    POOL_FACTORY_MODULE,
    THREAD_POOL_FACTORY,
    THREAD_POOL_FACTORY_MODULE,
    all_checkers,
    pool_constructions,
)

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..")
)
FIXTURES = "tests/analysis/fixtures"
RULES = {checker.rule_id: checker for checker in all_checkers()}


def lint_fixture(rule_id, kind):
    rel = f"{FIXTURES}/r{rule_id[1]}_{kind}.py"
    assert os.path.isfile(os.path.join(REPO_ROOT, rel)), rel
    return run_lint(REPO_ROOT, files=[rel], rules=[RULES[rule_id]])


class TestRuleRegistry:
    def test_at_least_six_rules(self):
        assert len(RULES) >= 6

    def test_rule_ids_unique_and_documented(self):
        assert sorted(RULES) == ["R1", "R2", "R3", "R4", "R6", "R7"]
        for checker in RULES.values():
            assert checker.name != "unnamed"
            assert checker.description


@pytest.mark.parametrize("rule_id", ["R2", "R3", "R4", "R6", "R7"])
class TestFixtureTriples:
    def test_clean_fixture_passes(self, rule_id):
        assert lint_fixture(rule_id, "clean") == []

    def test_suppressed_fixture_passes(self, rule_id):
        assert lint_fixture(rule_id, "suppressed") == []

    def test_bad_fixture_reports_under_this_rule(self, rule_id):
        findings = lint_fixture(rule_id, "bad")
        assert findings
        assert {item.rule for item in findings} == {rule_id}


class TestTaskKeyHygieneRule:
    def test_bad_lines_and_messages(self):
        findings = lint_fixture("R2", "bad")
        assert [(item.line, item.col) for item in findings] == [
            (21, 4), (28, 4), (30, 4),
        ]
        both, unclassified, unknown = findings
        assert "model_seed" in both.message
        assert "exactly one" in both.message
        assert "frobnicate_strength" in unclassified.message
        assert "unclassified" in unclassified.message
        assert "chunk_hint" in unknown.message
        assert "not an ExperimentConfig field" in unknown.message

    def test_allowlist_matches_real_config(self):
        """The rule's allowlist is live: drop a field and R2 fires."""
        import dataclasses

        from repro.experiments.common import ExperimentConfig

        declared = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert NUMBERS_AFFECTING_FIELDS <= declared


class TestWorkerSeedingRule:
    def test_bad_lines(self):
        findings = lint_fixture("R3", "bad")
        assert [item.line for item in findings] == [8, 12, 16, 17, 21]

    def test_messages_name_the_offence(self):
        findings = lint_fixture("R3", "bad")
        assert "unseeded default_rng()" in findings[0].message
        assert "np.random.seed()" in findings[2].message
        assert "np.random.rand()" in findings[3].message
        assert "np.random.shuffle()" in findings[4].message


class TestPlanKernelAllocationRule:
    def test_bad_lines(self):
        findings = lint_fixture("R4", "bad")
        assert [item.line for item in findings] == [15, 16, 18, 33]

    def test_messages_distinguish_alloc_kinds(self):
        findings = lint_fixture("R4", "bad")
        assert "np.zeros() allocates" in findings[0].message
        assert ".astype() copies" in findings[1].message
        assert "np.maximum() without out=" in findings[2].message
        assert "np.matmul() without out=" in findings[3].message


class TestEnvelopeSafetyRule:
    def test_bad_lines(self):
        findings = lint_fixture("R6", "bad")
        assert [item.line for item in findings] == [12, 18]

    def test_messages(self):
        findings = lint_fixture("R6", "bad")
        assert "bare caught exception 'error'" in findings[0].message
        assert "keyword arguments only" in findings[1].message


class TestPoolConstructionRule:
    def test_bad_lines(self):
        findings = lint_fixture("R7", "bad")
        assert [item.line for item in findings] == [
            10, 14, 18, 22, 27, 32, 36
        ]

    def test_messages_name_the_factory(self):
        *process, thread = lint_fixture("R7", "bad")
        for item in process:
            assert "outside repro.runtime.backends._new_pool" in item.message
            assert "oversubscribe" in item.message
        assert "outside repro.runtime.blas.split_pool" in thread.message
        assert "oversubscribe" in thread.message

    def test_only_the_factory_in_backends_is_exempt(self, tmp_path):
        module = tmp_path / POOL_FACTORY_MODULE
        module.parent.mkdir(parents=True)
        module.write_text(
            "from concurrent.futures import ProcessPoolExecutor\n"
            "\n"
            f"def {POOL_FACTORY}(count):\n"
            "    return ProcessPoolExecutor(max_workers=count)\n"
            "\n"
            "def _other_pool(count):\n"
            "    return ProcessPoolExecutor(max_workers=count)\n",
            encoding="utf-8",
        )
        findings = run_lint(
            str(tmp_path), files=[POOL_FACTORY_MODULE], rules=[RULES["R7"]]
        )
        assert [(item.path, item.line) for item in findings] == [
            (POOL_FACTORY_MODULE, 7)
        ]

    def test_only_split_pool_in_blas_builds_a_thread_pool(self, tmp_path):
        module = tmp_path / THREAD_POOL_FACTORY_MODULE
        module.parent.mkdir(parents=True)
        module.write_text(
            "from concurrent.futures import (\n"
            "    ProcessPoolExecutor, ThreadPoolExecutor,\n"
            ")\n"
            "\n"
            f"def {THREAD_POOL_FACTORY}(count):\n"
            "    ThreadPoolExecutor(max_workers=count)\n"
            "    return ProcessPoolExecutor(max_workers=count)\n"
            "\n"
            "def _other_threads(count):\n"
            "    return ThreadPoolExecutor(max_workers=count)\n",
            encoding="utf-8",
        )
        findings = run_lint(
            str(tmp_path), files=[THREAD_POOL_FACTORY_MODULE],
            rules=[RULES["R7"]],
        )
        assert [(item.line, item.message.split(" ")[0]) for item in findings] == [
            (7, "process"), (10, "thread"),
        ]

    def test_src_builds_exactly_one_thread_pool_in_split_pool(self):
        project = Project(REPO_ROOT)
        found = [
            (relpath, call.lineno)
            for relpath in discover_files(REPO_ROOT, roots=("src",))
            for call in pool_constructions(
                project.file(relpath).tree, frozenset({"ThreadPoolExecutor"})
            )
        ]
        assert len(found) == 1, found
        [(relpath, line)] = found
        assert relpath == THREAD_POOL_FACTORY_MODULE
        factory = next(
            node for node in project.file(relpath).tree.body
            if isinstance(node, ast.FunctionDef)
            and node.name == THREAD_POOL_FACTORY
        )
        assert factory.lineno <= line <= factory.end_lineno

    def test_src_builds_exactly_one_pool_in_the_factory(self):
        project = Project(REPO_ROOT)
        found = [
            (relpath, call.lineno)
            for relpath in discover_files(REPO_ROOT, roots=("src",))
            for call in pool_constructions(project.file(relpath).tree)
        ]
        assert len(found) == 1, found
        [(relpath, line)] = found
        assert relpath == POOL_FACTORY_MODULE
        factory = next(
            node for node in project.file(relpath).tree.body
            if isinstance(node, ast.FunctionDef) and node.name == POOL_FACTORY
        )
        assert factory.lineno <= line <= factory.end_lineno


class TestParityReferenceRule:
    """R1 runs over a whole project tree, so it gets tmp_path copies."""

    GOOD_TREE = os.path.join(REPO_ROOT, FIXTURES, "r1_project")

    @pytest.fixture()
    def tree(self, tmp_path):
        dst = str(tmp_path / "proj")
        shutil.copytree(self.GOOD_TREE, dst)
        return dst

    @staticmethod
    def _check(root):
        return list(RULES["R1"].check_project(Project(root)))

    @staticmethod
    def _rewrite(root, relpath, old, new):
        path = os.path.join(root, relpath)
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        assert old in source
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(source.replace(old, new))

    def test_declared_fast_paths_cover_the_repo(self):
        keys = [spec.key for spec in FAST_PATHS]
        assert keys == ["entropy-code", "inference-plan", "im2col"]

    def test_intact_tree_is_clean(self, tree):
        assert self._check(tree) == []

    def test_real_repo_satisfies_r1(self):
        assert self._check(REPO_ROOT) == []

    def test_missing_fast_module(self, tree):
        os.remove(os.path.join(tree, "src/repro/nn/engine.py"))
        findings = self._check(tree)
        assert [item.path for item in findings] == ["src/repro/nn/engine.py"]
        assert "declared fast-path module is missing" in findings[0].message

    def test_renamed_fast_symbol(self, tree):
        self._rewrite(
            tree, "src/repro/nn/im2col.py",
            "def _gather(", "def _gather_vectorized(",
        )
        findings = self._check(tree)
        assert len(findings) == 1
        assert "'_gather' is no longer defined here" in findings[0].message

    def test_deleted_reference_symbol(self, tree):
        self._rewrite(
            tree, "src/repro/reference.py",
            "def decode_scalar(", "def decode_scalar_gone(",
        )
        findings = self._check(tree)
        assert len(findings) == 1
        assert "parity is sacred" in findings[0].message
        assert "decode_scalar" in findings[0].message

    def test_deleted_parity_test(self, tree):
        os.remove(os.path.join(tree, "tests/test_parity.py"))
        findings = self._check(tree)
        assert len(findings) == len(FAST_PATHS)
        for item in findings:
            assert "add or restore the parity test" in item.message


class TestRepoSelfLint:
    def test_whole_repo_is_clean_under_all_rules(self):
        assert run_lint(REPO_ROOT, strict=True) == []
