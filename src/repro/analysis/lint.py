"""``repro lint``: an AST-based checker for the repo's own invariants.

The rules guard what the reproduction's numbers rest on: every fast
path keeps a bit-exact scalar reference, runtime knobs never leak into
store addresses, plan kernels stay allocation-free after warmup,
worker-importable code draws randomness from
:class:`~numpy.random.SeedSequence` flows, failure envelopes stay
JSON/pickle-safe, and every process pool comes from the one factory
that budgets its workers' BLAS threads.  This module is the *framework*
that runs them; the rules themselves live in
:mod:`repro.analysis.lint_rules` (and ``INVARIANTS.md`` states each
invariant with its rationale).

Architecture
------------

* :class:`Checker` — base class of a per-file rule: receives a parsed
  :class:`SourceFile` (source text + AST) and yields
  :class:`Finding`\\ s.  ``paths`` scopes which repo-relative prefixes
  the rule enforces during discovery; files passed to :func:`run_lint`
  explicitly are checked by every given rule regardless (that is what
  lets the fixture tests exercise rules on out-of-tree snippets).
* :class:`ProjectChecker` — a repo-level rule (e.g. the parity-reference
  guard R1 cross-references modules *and* test files); receives the
  whole :class:`Project`.
* :func:`run_lint` — discovery over ``src/`` and ``tests/`` (or an
  explicit file list), rule dispatch, deterministic ordering.
* :func:`lint_command` — ``repro lint``: every rule over the checkout,
  reported as text or, with ``--json``, as :func:`json_payload`.

No comment silences a finding.  A finding is cleared by fixing the code
or, when the architecture legitimately changes, by editing the rule's
table (R1's ``FAST_PATHS``, R2's ``NUMBERS_AFFECTING_FIELDS``).

Exit statuses: ``0`` clean, ``5`` findings — distinct from the CLI's 2
(usage error), 3 (sweep failure) and 130 (interrupted run).
"""

from __future__ import annotations

import ast
import json
import os
import sys
from dataclasses import dataclass
from typing import Iterator, Optional

#: Exit status of a lint run that reported findings.
EXIT_FINDINGS = 5

#: Repo-relative directories scanned when no explicit files are given.
DEFAULT_ROOTS = ("src", "tests")

#: Path fragments never discovered: the rule fixtures are known-bad on
#: purpose, so self-linting the repo must not trip over them.
EXCLUDED_FRAGMENTS = ("tests/analysis/fixtures",)

#: Rule id attached to files the parser rejects.
SYNTAX_RULE = "LINT-SYNTAX"


@dataclass(frozen=True)
class Finding:
    """One reported violation, addressed to a repo-relative line."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule, self.message)

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


class SourceFile:
    """A lazily parsed file under check."""

    def __init__(self, root: str, relpath: str) -> None:
        self.root = root
        self.relpath = relpath.replace(os.sep, "/")
        self._source: Optional[str] = None
        self._tree: Optional[ast.AST] = None
        self._parse_error: Optional[SyntaxError] = None

    @property
    def abspath(self) -> str:
        return os.path.join(self.root, self.relpath)

    @property
    def source(self) -> str:
        if self._source is None:
            with open(self.abspath, "r", encoding="utf-8") as handle:
                self._source = handle.read()
        return self._source

    @property
    def tree(self) -> Optional[ast.AST]:
        """The module AST, or ``None`` when the file does not parse."""
        if self._tree is None and self._parse_error is None:
            try:
                self._tree = ast.parse(self.source, filename=self.relpath)
            except SyntaxError as error:
                self._parse_error = error
        return self._tree

    @property
    def parse_error(self) -> Optional[SyntaxError]:
        self.tree  # noqa: B018 — force the parse attempt
        return self._parse_error


class Project:
    """The repo under check: a root plus a cache of parsed files."""

    def __init__(self, root: str) -> None:
        self.root = os.path.abspath(root)
        self._files: "dict[str, SourceFile]" = {}

    def file(self, relpath: str) -> SourceFile:
        relpath = relpath.replace(os.sep, "/")
        if relpath not in self._files:
            self._files[relpath] = SourceFile(self.root, relpath)
        return self._files[relpath]

    def module(self, relpath: str) -> Optional[SourceFile]:
        """The file at ``relpath``, or ``None`` when it does not exist."""
        if not os.path.isfile(os.path.join(self.root, relpath)):
            return None
        return self.file(relpath)

    def test_files(self) -> "list[SourceFile]":
        """Every Python file under ``tests/`` (fixtures excluded)."""
        return [
            self.file(relpath)
            for relpath in discover_files(self.root, roots=("tests",))
        ]


class Checker:
    """Base class of a per-file rule."""

    #: Stable rule id (``R1`` .. ``R7`` for the project rules).
    rule_id: str = "R?"
    #: Short kebab-case name, listed in the ``--json`` report.
    name: str = "unnamed"
    #: One-line statement of the enforced invariant.
    description: str = ""
    #: Repo-relative path prefixes the rule enforces during discovery.
    paths: tuple = ("src/",)
    #: Whether :meth:`check_project` replaces per-file checking.
    project_wide: bool = False

    def applies_to(self, relpath: str) -> bool:
        return any(relpath.startswith(prefix) for prefix in self.paths)

    def check(self, module: SourceFile) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, module: SourceFile, node, message: str) -> Finding:
        """A :class:`Finding` addressed to ``node`` (or a bare line int)."""
        if isinstance(node, int):
            line, col = node, 0
        else:
            line, col = node.lineno, getattr(node, "col_offset", 0)
        return Finding(
            rule=self.rule_id,
            path=module.relpath,
            line=line,
            col=col,
            message=message,
        )


class ProjectChecker(Checker):
    """Base class of a repo-level rule."""

    project_wide = True

    def check_project(self, project: Project) -> Iterator[Finding]:
        raise NotImplementedError

    def check(self, module: SourceFile) -> Iterator[Finding]:
        return iter(())


def discover_files(
    root: str, roots: tuple = DEFAULT_ROOTS
) -> "list[str]":
    """Repo-relative Python files under ``roots``, sorted, fixtures excluded."""
    found = []
    for base in roots:
        base_dir = os.path.join(root, base)
        if not os.path.isdir(base_dir):
            continue
        for dirpath, dirnames, filenames in os.walk(base_dir):
            dirnames.sort()
            for filename in sorted(filenames):
                if not filename.endswith(".py"):
                    continue
                relpath = os.path.relpath(
                    os.path.join(dirpath, filename), root
                ).replace(os.sep, "/")
                if any(part in relpath for part in EXCLUDED_FRAGMENTS):
                    continue
                found.append(relpath)
    return sorted(found)


def _syntax_finding(module: SourceFile) -> Finding:
    error = module.parse_error
    return Finding(
        rule=SYNTAX_RULE,
        path=module.relpath,
        line=error.lineno or 1,
        col=(error.offset or 1) - 1,
        message=f"file does not parse: {error.msg}",
    )


def run_lint(
    root: str,
    files: Optional["list[str]"] = None,
    rules: Optional["list[Checker]"] = None,
) -> "list[Finding]":
    """Run ``rules`` over the project at ``root``.

    ``files`` is an explicit repo-relative file list; ``None`` discovers
    ``src/`` and ``tests/``.  Explicitly listed files bypass each rule's
    ``paths`` scoping so fixtures and one-off snippets can be linted
    directly.
    """
    if rules is None:
        from repro.analysis.lint_rules import all_checkers

        rules = all_checkers()
    project = Project(root)
    explicit = files is not None
    relpaths = files if explicit else discover_files(project.root)
    modules = [project.file(relpath) for relpath in relpaths]

    findings: "list[Finding]" = []
    for module in modules:
        if module.parse_error is not None:
            findings.append(_syntax_finding(module))
            continue
        for checker in rules:
            if checker.project_wide:
                continue
            if not explicit and not checker.applies_to(module.relpath):
                continue
            findings.extend(checker.check(module))
    for checker in rules:
        if checker.project_wide:
            findings.extend(checker.check_project(project))
    return sorted(findings, key=Finding.sort_key)


def find_root(start: Optional[str] = None) -> str:
    """Walk up from ``start`` to the directory containing ``src/repro``."""
    path = os.path.abspath(start or os.getcwd())
    while True:
        if os.path.isdir(os.path.join(path, "src", "repro")):
            return path
        parent = os.path.dirname(path)
        if parent == path:
            return os.path.abspath(start or os.getcwd())
        path = parent


def json_payload(
    findings: "list[Finding]", rules: "list[Checker]"
) -> dict:
    """The machine-readable report ``repro lint --json`` emits."""
    return {
        "count": len(findings),
        "findings": [item.to_json() for item in findings],
        "rules": {
            checker.rule_id: {
                "name": checker.name,
                "description": checker.description,
            }
            for checker in rules
        },
    }


def lint_command(as_json: bool) -> int:
    """``repro lint``: every rule over the checkout around the cwd.

    Prints one line per finding (or, with ``as_json``, the
    :func:`json_payload` report) and returns the exit status.
    """
    from repro.analysis.lint_rules import all_checkers

    rules = all_checkers()
    findings = run_lint(find_root(), rules=rules)
    if as_json:
        json.dump(json_payload(findings, rules), sys.stdout, indent=2)
        print()
    else:
        for item in findings:
            print(item.format())
        print(
            f"repro lint: {len(findings)} finding(s) over src/ and tests/ "
            f"({len(rules)} rule(s) active)",
            file=sys.stderr,
        )
    return EXIT_FINDINGS if findings else 0
