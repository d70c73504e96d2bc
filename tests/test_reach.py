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
        stub,
        [reach.Command([sys.executable, "-c",
                        "import stub.mod; stub.mod.main()"])],
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
    with pytest.raises(RuntimeError, match="exited 3, expected 0"):
        reach.record(
            stub, [reach.Command([sys.executable, "-c", "raise SystemExit(3)"])],
            tmp_path, scratch,
        )


def test_each_command_must_exit_with_its_status(stub, tmp_path):
    # The child exits 3 only when the overlay reaches it.
    argv = [
        sys.executable, "-c",
        "import os, sys; sys.exit(3 * (os.environ.get('REPRO_PROBE') == 'on'))",
    ]
    for name in ("overlaid", "plain"):
        (tmp_path / name).mkdir()
    reach.record(
        stub, [reach.Command(argv, env={"REPRO_PROBE": "on"}, status=3)],
        tmp_path, tmp_path / "overlaid",
    )
    with pytest.raises(RuntimeError, match="exited 0, expected 3"):
        reach.record(
            stub, [reach.Command(argv, status=3)], tmp_path,
            tmp_path / "plain",
        )


def test_every_figure_runs_once_on_a_pool_with_progress(tmp_path):
    # The 2-worker run of each figure passes --progress, so the CLI's
    # progress printer reads as reached.
    # The chaos drill's pooled fig5 runs use a store; these runs do not.
    pooled = [
        command.argv for command in reach.run_list(tmp_path)
        if command.argv[1:4] == ["-m", "repro", "run"]
        and command.argv[command.argv.index("--workers") + 1] == "2"
        and "--artifacts-dir" not in command.argv
    ]
    assert sorted(argv[4] for argv in pooled) == sorted(reach.FIGURES)
    assert all("--progress" in argv for argv in pooled)


def test_lint_runs_as_ci_runs_it(tmp_path):
    # The CI lint job's two commands, so the lint framework and every
    # rule read as reached.
    commands = reach.run_list(tmp_path)
    for argv in (["lint"], ["lint", "--json"]):
        assert reach.Command([sys.executable, "-m", "repro", *argv]) in commands


def test_the_cli_chaos_drill_runs_as_ci_runs_it(tmp_path):
    # CI's chaos-tests job: a cursed cell collected with exit 3, the
    # resume and the replay, all on one fresh store.
    repro = [sys.executable, "-m", "repro"]
    chaos = ["fig5", "--scale", "micro", "--workers", "2",
             "--artifacts-dir", str(tmp_path / "chaos-store")]
    assert reach.run_list(tmp_path)[-3:] == [
        reach.Command(
            repro + ["run", *chaos, "--on-error", "collect", "--retries", "1"],
            env={"REPRO_FAULTS": "raise:3:0"}, status=3,
        ),
        reach.Command(repro + ["run", *chaos, "--on-error", "retry",
                               "--task-timeout", "600", "--json"]),
        reach.Command(repro + ["replay", *chaos]),
    ]
    stores = {
        command.argv[command.argv.index("--artifacts-dir") + 1]
        for command in reach.run_list(tmp_path)
        if "--artifacts-dir" in command.argv
    }
    assert stores == {str(tmp_path / "store"), str(tmp_path / "chaos-store")}


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
