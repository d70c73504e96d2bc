"""Chaos suite: the fault-tolerant runtime under deterministic faults.

Drives a real figure sweep (Fig. 5 on a shrunken grid) and a cheap
registered experiment through the fault-injection harness
(:mod:`repro.runtime.faults`) and asserts the headline guarantees:

* a sweep recovered from transient raises, a worker crash and a hung
  worker is **bit-identical** to a fault-free run;
* under ``on_error="collect"`` every healthy cell completes and persists
  before :class:`~repro.experiments.api.SweepFailure` surfaces, and a
  follow-up run recomputes **only** the failed cells (store counters);
* a truncated store artifact demotes to a cache miss and only that cell
  recomputes;
* worker crashes never wedge the runtime for subsequent maps;
* the CLI exits 3 with a failure report under ``collect``, and 130 with
  a resume hint on Ctrl-C, keeping finished cells either way.
"""

import json
import os

import pytest

from repro.experiments.api import (
    Axis,
    Experiment,
    SweepFailure,
    TableResult,
    build_experiment,
    register_experiment,
    run_experiment,
    unregister_experiment,
)
from repro.experiments.common import ExperimentConfig
from repro.experiments.store import ArtifactStore
from repro.runtime import faults
from repro.runtime.executor import fork_available
from repro.runtime.faults import truncate_store_artifacts
from repro.runtime.supervision import FAILURE_CRASH
from tests.runtime.helpers import plain_map

pytestmark = pytest.mark.skipif(
    not fork_available(),
    reason="the supervised pool (watchdog, crash recovery) requires fork",
)

#: Smallest configuration that still exercises every code path.
MICRO = ExperimentConfig(
    images_per_class=6, image_size=16, epochs=2, batch_size=8
)
#: A shrunken Fig. 5 grid: 2 methods x (2 LF + 2 HF) steps = 8 cells.
SWEEPS = {"LF": (1, 3), "HF": (1, 20)}
#: Watchdog budget for the hang faults: far above a micro cell's runtime,
#: far below the injected 30 s sleep.
TIMEOUT = 10.0


@pytest.fixture(autouse=True)
def _no_leaked_faults(monkeypatch):
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    faults.clear_faults()
    yield
    faults.clear_faults()


@pytest.fixture(scope="module")
def clean_fig5():
    """The fault-free reference result of the shrunken Fig. 5 sweep."""
    return run_experiment(build_experiment("fig5"), MICRO, step_sweeps=SWEEPS)


class TestFig5Recovery:
    def test_recovered_sweep_is_bit_identical(self, clean_fig5):
        """Transient raise + worker crash + hung worker, all recovered.

        The acceptance criterion: under ``--on-error retry`` the faulted
        sweep's every entry equals the fault-free run exactly — retried
        cells re-run the same task payload, so recovery is invisible in
        the results.
        """
        config = MICRO.with_overrides(
            workers=2, on_error="retry", retries=2, task_timeout=TIMEOUT
        )
        with faults.injected("raise:2:1,exit:5:1,hang:1:1:30"):
            faulted = run_experiment(
                build_experiment("fig5"), config, step_sweeps=SWEEPS
            )
        assert faulted.baseline_accuracy == clean_fig5.baseline_accuracy
        assert faulted.entries == clean_fig5.entries

    def test_collect_persists_healthy_cells_then_resumes(
        self, clean_fig5, tmp_path
    ):
        """``collect``: healthy cells land in the store before the failure
        report, and the follow-up run recomputes only the failed cell."""
        root = str(tmp_path / "store")
        config = MICRO.with_overrides(
            workers=2, on_error="collect", retries=1
        )
        with faults.injected("raise:3:0"):  # one permanently cursed cell
            with pytest.raises(SweepFailure) as exc_info:
                run_experiment(
                    build_experiment("fig5"), config, step_sweeps=SWEEPS,
                    store=ArtifactStore(root),
                )
        sweep_failure = exc_info.value
        assert len(sweep_failure.failures) == 1
        cell, envelope = sweep_failure.failures[0]
        assert cell == {"method": "magnitude", "group": "HF", "step": 20.0}
        assert envelope.attempts == 2
        assert "magnitude" in sweep_failure.report()

        # Fault lifted: the rerun recomputes exactly the one failed cell
        # (different runtime knobs on purpose — they never change the
        # store address) and matches the fault-free reference exactly.
        resume_store = ArtifactStore(root)
        resumed = run_experiment(
            build_experiment("fig5"),
            MICRO.with_overrides(workers=2, on_error="retry"),
            step_sweeps=SWEEPS, store=resume_store,
        )
        assert resume_store.misses == 1
        assert resume_store.hits == 8  # 7 healthy cells + baseline scalar
        assert resumed.entries == clean_fig5.entries
        assert resumed.baseline_accuracy == clean_fig5.baseline_accuracy

        # And a third run is fully warm: zero recomputation, same result.
        warm_store = ArtifactStore(root)
        warm = run_experiment(
            build_experiment("fig5"), MICRO, step_sweeps=SWEEPS,
            store=warm_store,
        )
        assert warm_store.misses == 0
        assert warm.entries == clean_fig5.entries

    def test_truncated_artifact_recomputes_only_that_cell(
        self, clean_fig5, tmp_path
    ):
        """A crashed writer's truncated artifact demotes to a cache miss."""
        root = str(tmp_path / "store")
        run_experiment(
            build_experiment("fig5"), MICRO, step_sweeps=SWEEPS,
            store=ArtifactStore(root),
        )
        truncated = truncate_store_artifacts(root, count=1)
        assert len(truncated) == 1
        store = ArtifactStore(root)
        result = run_experiment(
            build_experiment("fig5"), MICRO, step_sweeps=SWEEPS, store=store
        )
        assert store.misses == 1
        assert result.entries == clean_fig5.entries
        assert result.baseline_accuracy == clean_fig5.baseline_accuracy


class _CheapChaos(Experiment):
    """A trivially cheap experiment for runtime-focused chaos tests."""

    name = "cheap-chaos"
    title = "cheap chaos probe"
    headers = ["i", "sq"]

    def axes(self, ctx):
        return [Axis("i", tuple(range(6)))]

    def build_state(self, key):
        return {}

    def compute_cell(self, key, state, cell, extra):
        return cell["i"] ** 2

    def assemble(self, ctx, results, scalars):
        return TableResult(self.headers, [[i, r] for i, r in enumerate(results)])


@pytest.fixture()
def cheap_chaos():
    register_experiment(_CheapChaos.name, _CheapChaos, overwrite=True)
    yield build_experiment(_CheapChaos.name)
    unregister_experiment(_CheapChaos.name)


class TestWorkerCrash:
    def test_crash_recovers_under_retry(self, cheap_chaos):
        config = MICRO.with_overrides(workers=2, on_error="retry", retries=2)
        with faults.injected("exit:4:1"):  # os._exit mid-sweep
            result = run_experiment(cheap_chaos, config)
        assert [row[1] for row in result.rows()] == [0, 1, 4, 9, 16, 25]

    def test_crash_without_retries_names_the_cell(self, cheap_chaos):
        config = MICRO.with_overrides(workers=2, on_error="retry", retries=0)
        with faults.injected("exit:4:0"):
            with pytest.raises(SweepFailure) as exc_info:
                run_experiment(cheap_chaos, config)
        cell, envelope = exc_info.value.failures[0]
        assert cell == {"i": 4}
        assert envelope.kind == FAILURE_CRASH

    def test_crash_under_the_default_policy_names_the_cell(self, cheap_chaos):
        with faults.injected("exit:4:0"):
            with pytest.raises(SweepFailure) as exc_info:
                run_experiment(cheap_chaos, MICRO.with_overrides(workers=2))
        cell, envelope = exc_info.value.failures[0]
        assert cell == {"i": 4}
        assert envelope.kind == FAILURE_CRASH

    def test_crash_never_wedges_subsequent_maps(self, cheap_chaos):
        config = MICRO.with_overrides(workers=2, on_error="retry", retries=0)
        with faults.injected("exit:2:0"):
            with pytest.raises(SweepFailure):
                run_experiment(cheap_chaos, config)
        # The runtime (and a fresh pool) must be fully usable afterwards.
        assert plain_map(
            _cheap_square, range(4), workers=2
        ) == [0, 1, 4, 9]
        rerun = run_experiment(
            cheap_chaos,
            MICRO.with_overrides(workers=2, on_error="retry", retries=1),
        )
        assert [row[1] for row in rerun.rows()] == [0, 1, 4, 9, 16, 25]


def _cheap_square(value):
    return value * value


# ----------------------------------------------------------------------
# CLI chaos: exit statuses, failure reports, resume hints.
# ----------------------------------------------------------------------

_PLUGIN_SOURCE = """\
import os

from repro.experiments import api


class ChaosCli(api.Experiment):
    name = "chaos-cli"
    title = "CLI chaos probe"
    headers = ["n", "value"]

    def axes(self, ctx):
        return [api.Axis("n", (0, 1, 2, 3))]

    def build_state(self, key):
        return {}

    def compute_cell(self, key, state, cell, extra):
        if cell["n"] == 2 and os.environ.get("REPRO_TEST_INTERRUPT") == "1":
            raise KeyboardInterrupt()
        return [cell["n"], cell["n"] * 10]

    def assemble(self, ctx, results, scalars):
        return api.TableResult(self.headers, list(results))


api.register_experiment(ChaosCli.name, ChaosCli, overwrite=True)
"""


@pytest.fixture()
def chaos_cli_plugin(tmp_path, monkeypatch):
    import sys

    (tmp_path / "chaos_cli_plugin.py").write_text(
        _PLUGIN_SOURCE, encoding="utf-8"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.setenv("REPRO_EXPERIMENT_MODULES", "chaos_cli_plugin")
    yield
    unregister_experiment("chaos-cli")
    # Drop the import cache so the next test's copy re-registers.
    sys.modules.pop("chaos_cli_plugin", None)


class TestCliChaos:
    def test_collect_exits_3_with_report_then_resumes_clean(
        self, chaos_cli_plugin, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main

        store_dir = str(tmp_path / "store")
        base = ["run", "chaos-cli", "--scale", "micro", "--workers", "2",
                "--artifacts-dir", store_dir]
        monkeypatch.setenv(faults.ENV_VAR, "raise:1:0")
        assert main([*base, "--on-error", "collect", "--retries", "1"]) == 3
        err = capsys.readouterr().err
        assert "1 of 4 cell(s) failed" in err
        assert "InjectedFault" in err
        assert "resume with" in err and store_dir in err

        # Fault lifted: the same command completes, recomputing only the
        # failed cell.
        monkeypatch.delenv(faults.ENV_VAR)
        assert main([*base, "--on-error", "collect", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"] == [[0, 0], [1, 10], [2, 20], [3, 30]]
        assert payload["store"]["misses"] == 1
        assert payload["store"]["hits"] == 3

    def test_worker_crash_exits_3_with_resume_hint(
        self, chaos_cli_plugin, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main

        store_dir = str(tmp_path / "store")
        monkeypatch.setenv(faults.ENV_VAR, "exit:1:0")
        assert main(
            ["run", "chaos-cli", "--scale", "micro", "--workers", "2",
             "--artifacts-dir", store_dir]
        ) == 3
        err = capsys.readouterr().err
        assert "worker-crash" in err
        assert "resume with" in err and store_dir in err

    def test_retry_policy_recovers_transient_fault(
        self, chaos_cli_plugin, monkeypatch, capsys
    ):
        from repro.cli import main

        monkeypatch.setenv(faults.ENV_VAR, "raise:3:1")
        assert main(
            ["run", "chaos-cli", "--scale", "micro", "--workers", "2",
             "--on-error", "retry", "--retries", "2", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"] == [[0, 0], [1, 10], [2, 20], [3, 30]]

    def test_keyboard_interrupt_exits_130_and_keeps_finished_cells(
        self, chaos_cli_plugin, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main

        store_dir = str(tmp_path / "store")
        base = ["run", "chaos-cli", "--scale", "micro",
                "--artifacts-dir", store_dir]
        monkeypatch.setenv("REPRO_TEST_INTERRUPT", "1")
        assert main(base) == 130
        err = capsys.readouterr().err
        assert "interrupted" in err
        assert "resume with" in err and store_dir in err
        # Cells 0 and 1 finished before the interrupt and were persisted.
        assert len(ArtifactStore(store_dir)) == 2

        monkeypatch.delenv("REPRO_TEST_INTERRUPT")
        assert main([*base, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"] == [[0, 0], [1, 10], [2, 20], [3, 30]]
        assert payload["store"]["hits"] == 2
        assert payload["store"]["misses"] == 2


class TestCliJsonFailureReport:
    def test_json_sweep_failure_emits_envelopes(
        self, chaos_cli_plugin, tmp_path, monkeypatch, capsys
    ):
        """--json + collect: the failure report is a machine-readable
        payload of TaskFailure envelopes (round-trips via from_json)."""
        from repro.cli import main
        from repro.runtime.supervision import TaskFailure

        monkeypatch.setenv(faults.ENV_VAR, "raise:1:0")
        code = main(
            ["run", "chaos-cli", "--scale", "micro", "--workers", "2",
             "--artifacts-dir", str(tmp_path / "store"),
             "--on-error", "collect", "--retries", "1", "--json"]
        )
        assert code == 3
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["experiment"] == "chaos-cli"
        assert payload["failed"] == 1 and payload["total"] == 4
        (entry,) = payload["failures"]
        assert entry["cell"] == {"n": 1}
        envelope = TaskFailure.from_json(entry["failure"])
        assert envelope.error_type == "InjectedFault"
        assert envelope.attempts == 2
        # The human-readable report still lands on stderr.
        assert "1 of 4 cell(s) failed" in captured.err

    def test_bad_fault_spec_fails_eagerly_with_exit_2(
        self, chaos_cli_plugin, monkeypatch, capsys
    ):
        """A REPRO_FAULTS typo must abort before any cell runs, naming
        the bad token — not surface minutes into a sweep."""
        from repro.cli import main

        monkeypatch.setenv(faults.ENV_VAR, "raise:1,bogus:2")
        assert main(["run", "chaos-cli", "--scale", "micro"]) == 2
        err = capsys.readouterr().err
        assert faults.ENV_VAR in err and "bogus" in err
