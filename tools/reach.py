"""List the functions under ``src/repro`` that no figure, example or workload runs.

The probe runs a fixed list of commands (:func:`run_list`): every figure
through ``python -m repro``, cold (once on a 2-worker pool with
``--progress``) and replayed, ``repro lint`` as the CI lint job runs it
(as text and as ``--json``), every example, and the three benchmark
workloads.  Each command runs in a child interpreter whose
``PYTHONPATH`` starts with a generated ``sitecustomize``: it records
every code object the process enters under ``src/repro``
(``sys.setprofile`` and ``threading.setprofile``) and writes them to a
dump file at exit.  It also wraps ``os._exit``, so a forked pool worker,
which leaves through ``os._exit``, writes its dump too.

The functions themselves are listed with :mod:`ast`.  A function is
reached when some process entered a code object of its file whose first
line is the function's first line; for a decorated function that is the
line of its first decorator, where the compiler puts ``co_firstlineno``.

The report lists the unreached functions by module, with their line
counts, and ends with one total line::

    N of M functions unreached (L lines)

Run it from anywhere (it takes no options; one run takes about a minute
on two CPUs)::

    python3 tools/reach.py

Stores, dumps and the temporary files of the commands go to a temporary
directory that is removed at the end, so the checkout is left as it was.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"

FIGURES = ("fig2", "fig3", "fig5", "fig6", "fig7", "fig8", "fig9")
EXAMPLES = (
    "custom_quantization_table.py",
    "edge_iot_pipeline.py",
    "frequency_analysis_demo.py",
    "quickstart.py",
)
WORKLOADS = ("fig8-train", "fig5-sweep", "edge-stream")

#: The recorder every child interpreter imports at start-up.  Code
#: objects are kept by identity while the process runs (hashing a code
#: object walks its constants), and filtered by file name at exit.
SITECUSTOMIZE = '''\
import atexit
import os
import sys
import tempfile
import threading

_PREFIX = {prefix!r}
_DUMPS = {dumps!r}
_codes = {{}}
_exit = os._exit


def _profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        _codes[id(code)] = code


def _dump():
    lines = {{
        f"{{code.co_filename}}\\t{{code.co_firstlineno}}\\n"
        for code in list(_codes.values())
        if code.co_filename.startswith(_PREFIX)
    }}
    handle, _ = tempfile.mkstemp(dir=_DUMPS, suffix=".txt")
    with os.fdopen(handle, "w", encoding="utf-8") as dump:
        dump.writelines(sorted(lines))


def _dump_and_exit(status):
    try:
        _dump()
    finally:
        _exit(status)


os._exit = _dump_and_exit
atexit.register(_dump)
threading.setprofile(_profile)
sys.setprofile(_profile)
'''


@dataclass(frozen=True)
class Function:
    """One ``def`` found by :func:`list_functions`."""

    module: str
    qualname: str
    path: str
    #: The first decorator's line, or the ``def`` line when undecorated.
    line: int
    lines: int


def run_list(store: Path) -> "list[list[str]]":
    """The fixed commands the probe runs, from the root of the checkout."""
    python = sys.executable
    repro = [python, "-m", "repro"]
    commands = [
        repro + ["run", figure, "--scale", "micro", "--workers", "2",
                 "--progress"]
        for figure in FIGURES
    ]
    for figure in FIGURES:
        for command in ("run", "replay"):
            commands.append(repro + [
                command, figure, "--scale", "micro", "--workers", "1",
                "--artifacts-dir", str(store),
            ])
    commands.append(repro + ["list"])
    commands += [repro + ["lint"], repro + ["lint", "--json"]]
    commands += [[python, f"examples/{example}"] for example in EXAMPLES]
    commands += [
        [python, "examples/reproduce_paper.py", "--scale", "micro",
         "--workers", workers]
        for workers in ("1", "2")
    ]
    commands += [
        [python, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "3", "--trace", "0"]
        for workload in WORKLOADS
    ]
    return commands


def list_functions(package: Path) -> "list[Function]":
    """Every ``def`` and ``async def`` under ``package``, nested ones too."""
    found: "list[Function]" = []
    for path in sorted(package.rglob("*.py")):
        parts = path.relative_to(package.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        _collect(tree, ".".join(parts), str(path), [], found)
    return found


def _collect(node, module: str, path: str, scope: list, found: list) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = (
                child.decorator_list[0].lineno
                if child.decorator_list else child.lineno
            )
            found.append(Function(
                module, ".".join(scope + [child.name]), path, first,
                child.end_lineno - first + 1,
            ))
            _collect(child, module, path, scope + [child.name, "<locals>"],
                     found)
        elif isinstance(child, ast.ClassDef):
            _collect(child, module, path, scope + [child.name], found)
        else:
            _collect(child, module, path, scope, found)


def record(package: Path, commands, cwd: Path, scratch: Path) -> set:
    """Run ``commands`` under the recorder; the ``(file, line)`` pairs entered.

    ``package`` must be a resolved path: its parent goes on the children's
    ``PYTHONPATH`` as given, so the file names the children record start
    with it.  Each command must exit 0.
    """
    site = scratch / "site"
    dumps = scratch / "dumps"
    temporary = scratch / "tmp"
    for directory in (site, dumps, temporary):
        directory.mkdir()
    (site / "sitecustomize.py").write_text(
        SITECUSTOMIZE.format(
            prefix=str(package) + os.sep, dumps=str(dumps)
        ),
        encoding="utf-8",
    )
    # A REPRO_* setting left in the caller's shell (a fault spec, a plugin
    # module) would change what the fixed run list reaches.
    env = {
        name: value for name, value in os.environ.items()
        if not name.startswith("REPRO_")
    }
    env["PYTHONPATH"] = os.pathsep.join([str(site), str(package.parent)])
    env["TMPDIR"] = str(temporary)
    for index, command in enumerate(commands, 1):
        print(f"[{index}/{len(commands)}] {' '.join(command)}",
              file=sys.stderr, flush=True)
        completed = subprocess.run(
            command, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
        )
        if completed.returncode != 0:
            raise RuntimeError(
                f"{' '.join(command)} exited {completed.returncode}:\n"
                + completed.stderr[-2000:]
            )
    entered = set()
    for dump in dumps.glob("*.txt"):
        for line in dump.read_text(encoding="utf-8").splitlines():
            filename, first = line.rsplit("\t", 1)
            entered.add((filename, int(first)))
    return entered


def unreached(functions: "list[Function]", entered: set) -> "list[Function]":
    return [
        function for function in functions
        if (function.path, function.line) not in entered
    ]


def report(missed: "list[Function]", total: int) -> str:
    """The unreached functions by module, then the total line."""
    by_module = defaultdict(list)
    for function in missed:
        by_module[function.module].append(function)
    lines = []
    for module in sorted(by_module):
        functions = by_module[module]
        lines.append(
            f"{module}: {len(functions)} unreached "
            f"({sum(function.lines for function in functions)} lines)"
        )
        for function in functions:
            lines.append(
                f"  {function.qualname} (line {function.line}, "
                f"{function.lines} lines)"
            )
    lines.append(
        f"{len(missed)} of {total} functions unreached "
        f"({sum(function.lines for function in missed)} lines)"
    )
    return "\n".join(lines)


def main() -> int:
    functions = list_functions(PACKAGE)
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        scratch = Path(scratch)
        entered = record(PACKAGE, run_list(scratch / "store"), ROOT, scratch)
    print(report(unreached(functions, entered), len(functions)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
