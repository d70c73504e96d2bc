"""``repro lint``: an AST-based checker for the repo's own invariants.

Nine PRs of growth rest on correctness rules that, until now, existed
only as reviewer discipline: every fast path keeps a bit-exact scalar
reference, runtime knobs never leak into store addresses, plan kernels
stay allocation-free after warmup, worker-importable code draws
randomness from :class:`~numpy.random.SeedSequence` flows, shared-memory
segments always reach an unlink path, failure envelopes stay
JSON/pickle-safe, and every process pool comes from the one factory
that budgets its workers' BLAS threads.  This module is the *framework* that mechanizes
those rules; the rules themselves live in
:mod:`repro.analysis.lint_rules` (and ``INVARIANTS.md`` states each
invariant with its rationale).

Architecture
------------

* :class:`Checker` — base class of a per-file rule: receives a parsed
  :class:`SourceFile` (source text + AST + suppression table) and yields
  :class:`Finding`\\ s.  ``paths`` scopes which repo-relative prefixes
  the rule enforces during discovery; files named explicitly on the
  command line are checked by every selected rule regardless (that is
  what lets the fixture tests exercise rules on out-of-tree snippets).
* :class:`ProjectChecker` — a repo-level rule (e.g. the parity-reference
  guard R1 cross-references modules *and* test files); receives the
  whole :class:`Project`.
* :func:`run_lint` — discovery over ``src/`` and ``tests/`` (or an
  explicit/``--changed`` file list), rule dispatch, suppression
  filtering, deterministic ordering.

Suppression
-----------

A finding is silenced by a same-line comment::

    some_violation()  # repro: lint-ignore[R3] fallback is parent-seeded

The bracket names one or more rule ids (comma-separated); the trailing
free text is the mandatory human reason.  ``--strict`` additionally
reports suppression hygiene: unknown rule ids, missing reasons, and
ignores that no longer suppress anything (rule id ``LINT-IGNORE``).

Exit statuses: ``0`` clean, ``5`` findings, ``2`` usage errors —
distinct from the CLI's 3 (sweep failure) and 130 (interrupted run).
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import os
import re
import subprocess
import sys
import tokenize
from dataclasses import dataclass
from typing import Iterator, Optional

#: Exit status of a lint run that reported findings.
EXIT_FINDINGS = 5

#: Repo-relative directories scanned when no explicit paths are given.
DEFAULT_ROOTS = ("src", "tests")

#: Path fragments never discovered: the rule fixtures are known-bad on
#: purpose, so self-linting the repo must not trip over them.
EXCLUDED_FRAGMENTS = ("tests/analysis/fixtures",)

#: Rule id attached to files the parser rejects.
SYNTAX_RULE = "LINT-SYNTAX"

#: Rule id of suppression-hygiene findings (reported under ``--strict``).
IGNORE_RULE = "LINT-IGNORE"

_IGNORE_RE = re.compile(
    r"repro:\s*lint-ignore\[(?P<rules>[A-Za-z0-9_.\-, ]+)\]"
    r"(?:\s+(?P<reason>\S.*))?"
)


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

    @classmethod
    def from_json(cls, payload: dict) -> "Finding":
        return cls(
            rule=payload["rule"],
            path=payload["path"],
            line=payload["line"],
            col=payload["col"],
            message=payload["message"],
        )


@dataclass
class Suppression:
    """One ``# repro: lint-ignore[...]`` comment."""

    line: int
    rules: tuple
    reason: str
    used: bool = False


def parse_suppressions(source: str) -> "dict[int, Suppression]":
    """The per-line suppression table of ``source``.

    Comments are found with :mod:`tokenize` (never inside string
    literals — this file's own docstring would otherwise register one).
    An unreadable file yields an empty table; the parse error surfaces
    through the AST pass instead.
    """
    table: "dict[int, Suppression]" = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _IGNORE_RE.search(token.string)
            if not match:
                continue
            rules = tuple(
                part.strip()
                for part in match.group("rules").split(",")
                if part.strip()
            )
            table[token.start[0]] = Suppression(
                line=token.start[0],
                rules=rules,
                reason=(match.group("reason") or "").strip(),
            )
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return {}
    return table


class SourceFile:
    """A lazily parsed file under check."""

    def __init__(self, root: str, relpath: str) -> None:
        self.root = root
        self.relpath = relpath.replace(os.sep, "/")
        self._source: Optional[str] = None
        self._tree: Optional[ast.AST] = None
        self._parse_error: Optional[SyntaxError] = None
        self._suppressions: Optional[dict] = None

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

    @property
    def suppressions(self) -> "dict[int, Suppression]":
        if self._suppressions is None:
            self._suppressions = parse_suppressions(self.source)
        return self._suppressions


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
    #: Short kebab-case name shown in ``--list-rules``.
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


def changed_files(
    root: str, base: Optional[str] = None, roots: tuple = DEFAULT_ROOTS
) -> "list[str]":
    """Git-diff-scoped discovery: the Python files this change touches.

    The union of (a) commits since the merge base with ``base`` when one
    is given, (b) uncommitted working-tree changes, and (c) untracked
    files — filtered to existing ``.py`` files under ``roots``.  Keeps
    ``repro lint --changed`` proportional to the diff, not the tree.
    """
    commands = [["git", "diff", "--name-only", "-z", "HEAD", "--"]]
    if base:
        commands.append(
            ["git", "diff", "--name-only", "-z", f"{base}...HEAD", "--"]
        )
    commands.append(
        ["git", "ls-files", "--others", "--exclude-standard", "-z"]
    )
    names: "set[str]" = set()
    for command in commands:
        result = subprocess.run(
            command, cwd=root, capture_output=True, text=True, check=True
        )
        names.update(part for part in result.stdout.split("\0") if part)
    prefixes = tuple(base.rstrip("/") + "/" for base in roots)
    selected = [
        name.replace(os.sep, "/")
        for name in names
        if name.endswith(".py")
        and name.replace(os.sep, "/").startswith(prefixes)
        and not any(
            part in name.replace(os.sep, "/") for part in EXCLUDED_FRAGMENTS
        )
        and os.path.isfile(os.path.join(root, name))
    ]
    return sorted(selected)


def _syntax_finding(module: SourceFile) -> Finding:
    error = module.parse_error
    return Finding(
        rule=SYNTAX_RULE,
        path=module.relpath,
        line=error.lineno or 1,
        col=(error.offset or 1) - 1,
        message=f"file does not parse: {error.msg}",
    )


def _apply_suppressions(
    findings: "list[Finding]", project: Project
) -> "list[Finding]":
    kept = []
    for item in findings:
        if item.rule in (SYNTAX_RULE, IGNORE_RULE):
            kept.append(item)  # meta findings are not suppressible
            continue
        suppression = project.file(item.path).suppressions.get(item.line)
        if suppression is not None and item.rule in suppression.rules:
            suppression.used = True
            continue
        kept.append(item)
    return kept


def _suppression_hygiene(
    project: Project,
    files: "list[SourceFile]",
    known_rules: "set[str]",
) -> "list[Finding]":
    findings = []
    for module in files:
        for suppression in module.suppressions.values():
            unknown = [
                rule for rule in suppression.rules if rule not in known_rules
            ]
            for rule in unknown:
                findings.append(Finding(
                    rule=IGNORE_RULE,
                    path=module.relpath,
                    line=suppression.line,
                    col=0,
                    message=f"lint-ignore names unknown rule {rule!r}",
                ))
            if not suppression.reason:
                findings.append(Finding(
                    rule=IGNORE_RULE,
                    path=module.relpath,
                    line=suppression.line,
                    col=0,
                    message="lint-ignore requires a reason after the bracket",
                ))
            if not suppression.used and not unknown:
                findings.append(Finding(
                    rule=IGNORE_RULE,
                    path=module.relpath,
                    line=suppression.line,
                    col=0,
                    message=(
                        "lint-ignore suppresses nothing on this line; "
                        "remove it"
                    ),
                ))
    return findings


def run_lint(
    root: str,
    files: Optional["list[str]"] = None,
    rules: Optional["list[Checker]"] = None,
    strict: bool = False,
) -> "list[Finding]":
    """Run ``rules`` over the project at ``root``.

    ``files`` is an explicit repo-relative file list (``--changed`` or
    positional paths); ``None`` discovers ``src/`` and ``tests/``.
    Explicitly listed files bypass each rule's ``paths`` scoping so
    fixtures and one-off snippets can be linted directly.
    """
    if rules is None:
        from repro.analysis.lint_rules import all_checkers

        rules = all_checkers()
    project = Project(root)
    explicit = files is not None
    relpaths = files if explicit else discover_files(project.root)
    modules = [project.file(relpath) for relpath in relpaths]

    findings: "list[Finding]" = []
    checked: "list[SourceFile]" = []
    for module in modules:
        if module.parse_error is not None:
            findings.append(_syntax_finding(module))
            continue
        checked.append(module)
        for checker in rules:
            if checker.project_wide:
                continue
            if not explicit and not checker.applies_to(module.relpath):
                continue
            findings.extend(checker.check(module))
    for checker in rules:
        if checker.project_wide:
            findings.extend(checker.check_project(project))

    findings = _apply_suppressions(findings, project)
    if strict:
        known = {checker.rule_id for checker in rules}
        findings.extend(_suppression_hygiene(project, checked, known))
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "Check the repo against its own correctness invariants "
            "(see INVARIANTS.md)."
        ),
    )
    parser.add_argument(
        "paths", nargs="*",
        help="explicit files to lint (default: discover src/ and tests/)",
    )
    parser.add_argument(
        "--root", default=None,
        help="project root (default: walk up from the cwd to src/repro)",
    )
    parser.add_argument(
        "--changed", action="store_true",
        help="lint only files the git diff touches (working tree, "
        "commits past --base, and untracked files)",
    )
    parser.add_argument(
        "--base", default=None,
        help="merge-base ref for --changed (e.g. origin/main)",
    )
    parser.add_argument(
        "--select", default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="also report suppression hygiene: unknown rule ids, "
        "missing reasons, and ignores that suppress nothing",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the findings as JSON on stdout",
    )
    parser.add_argument(
        "--list-rules", action="store_true", dest="list_rules",
        help="list the active rules and exit",
    )
    return parser


def main(argv: Optional["list[str]"] = None) -> int:
    from repro.analysis.lint_rules import all_checkers

    arguments = build_parser().parse_args(argv)
    rules = all_checkers()
    if arguments.select:
        wanted = {part.strip() for part in arguments.select.split(",")}
        known = {checker.rule_id for checker in rules}
        unknown = sorted(wanted - known)
        if unknown:
            print(
                f"error: unknown rule id(s) {unknown}; "
                f"known: {sorted(known)}",
                file=sys.stderr,
            )
            return 2
        rules = [
            checker for checker in rules if checker.rule_id in wanted
        ]
    if arguments.list_rules:
        for checker in rules:
            print(
                f"{checker.rule_id}  {checker.name}: {checker.description}"
            )
        return 0

    root = os.path.abspath(arguments.root) if arguments.root else find_root()
    files: Optional["list[str]"] = None
    if arguments.paths:
        files = []
        for path in arguments.paths:
            abspath = os.path.abspath(path)
            if not os.path.isfile(abspath):
                print(f"error: no such file: {path}", file=sys.stderr)
                return 2
            files.append(os.path.relpath(abspath, root).replace(os.sep, "/"))
        if arguments.changed:
            print(
                "error: --changed and explicit paths are mutually exclusive",
                file=sys.stderr,
            )
            return 2
    elif arguments.changed:
        try:
            files = changed_files(root, base=arguments.base)
        except (subprocess.CalledProcessError, OSError) as error:
            print(f"error: git discovery failed: {error}", file=sys.stderr)
            return 2

    findings = run_lint(
        root, files=files, rules=rules, strict=arguments.strict
    )
    if arguments.as_json:
        json.dump(json_payload(findings, rules), sys.stdout, indent=2)
        print()
    else:
        for item in findings:
            print(item.format())
        scope = (
            f"{len(files)} changed/selected file(s)"
            if files is not None else "src/ and tests/"
        )
        summary = (
            f"repro lint: {len(findings)} finding(s) over {scope} "
            f"({len(rules)} rule(s) active)"
        )
        print(summary, file=sys.stderr)
    return EXIT_FINDINGS if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
