"""The reachability probe, ``tools/reach.py``, on a stub package."""

import json
import os
import sys
import textwrap

import pytest

from tools import reach

STUB = '''\
import functools
import os


def called():
    return 1


def uncalled():
    return 2


def decorate(function):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        return function(*args, **kwargs)

    return wrapper


@decorate
def decorated():
    return 3


class Box:
    def method(self):
        return 4

    def unused_method(self):
        return 5


def forked_only():
    return 6


def main():
    called()
    decorated()
    Box().method()
    pid = os.fork()
    if pid == 0:
        forked_only()
        os._exit(0)
    os.waitpid(pid, 0)
'''


@pytest.fixture()
def stub(tmp_path):
    package = tmp_path / "src" / "stub"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("", encoding="utf-8")
    (package / "mod.py").write_text(STUB, encoding="utf-8")
    return package.resolve()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the stub forks")
def test_classifies_the_stub_functions(stub, tmp_path):
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    functions = reach.list_functions(stub)
    entered = reach.record(
        stub, [[sys.executable, "-c", "import stub.mod; stub.mod.main()"]],
        tmp_path, scratch,
    )
    missed = reach.unreached(functions, entered)

    assert sorted(function.qualname for function in functions) == [
        "Box.method", "Box.unused_method", "called", "decorate",
        "decorate.<locals>.wrapper", "decorated", "forked_only", "main",
        "uncalled",
    ]
    # A decorated function is keyed on its first decorator's line, an
    # uncalled method is missed while its called sibling is not, and the
    # forked child's dump (written by the os._exit wrapper) counts.
    assert [function.qualname for function in missed] == [
        "uncalled", "Box.unused_method",
    ]
    decorated = next(f for f in functions if f.qualname == "decorated")
    assert STUB.splitlines()[decorated.line - 1] == "@decorate"
    assert decorated.lines == 3


def test_report_groups_by_module_and_totals(stub):
    functions = reach.list_functions(stub)
    missed = [f for f in functions if f.qualname in ("uncalled", "main")]
    assert reach.report(missed, len(functions)) == textwrap.dedent("""\
        stub.mod: 2 unreached (11 lines)
          uncalled (line 9, 2 lines)
          main (line 38, 9 lines)
        2 of 9 functions unreached (11 lines)""")


def test_a_failing_command_is_an_error(stub, tmp_path):
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    with pytest.raises(RuntimeError, match="exited 3"):
        reach.record(
            stub, [[sys.executable, "-c", "raise SystemExit(3)"]],
            tmp_path, scratch,
        )


def test_every_figure_runs_once_on_a_pool_with_progress(tmp_path):
    # The 2-worker run of each figure passes --progress, so the CLI's
    # progress printer reads as reached.
    pooled = {
        command[4]: command for command in reach.run_list(tmp_path)
        if command[1:4] == ["-m", "repro", "run"]
        and command[command.index("--workers") + 1] == "2"
    }
    assert sorted(pooled) == sorted(reach.FIGURES)
    assert all("--progress" in command for command in pooled.values())


def test_figures_are_the_registered_experiments():
    # A figure registered later must join the fixed run list, or its
    # code would read as unreached.
    from repro.experiments import experiment_names

    assert sorted(reach.FIGURES) == sorted(experiment_names())


def test_examples_are_every_example_script():
    # reproduce_paper.py runs with its own options, outside EXAMPLES.
    scripts = {path.name for path in (reach.ROOT / "examples").glob("*.py")}
    assert sorted(reach.EXAMPLES) == sorted(scripts - {"reproduce_paper.py"})


def test_workloads_are_the_benchmark_workloads():
    declared = json.loads((reach.ROOT / "BENCHMARK.json").read_text())
    assert sorted(reach.WORKLOADS) == sorted(
        workload["name"] for workload in declared["workloads"]
    )
