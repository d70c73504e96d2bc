"""The ``python -m repro`` command line: parsing, list, run, replay."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import SCALES, build_parser, main
from repro.experiments import api
from repro.experiments.api import Experiment, register_experiment, unregister_experiment


class TestArgumentParsing:
    def test_subcommand_required(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            build_parser().parse_args([])
        assert exc_info.value.code == 2

    def test_run_defaults(self):
        arguments = build_parser().parse_args(["run", "fig5"])
        assert arguments.command == "run"
        assert arguments.experiment == "fig5"
        assert arguments.scale == "small"
        assert arguments.workers == 1
        assert arguments.artifacts_dir is None
        assert not arguments.as_json
        assert not arguments.progress

    def test_run_all_flags(self):
        arguments = build_parser().parse_args(
            ["run", "fig7", "--scale", "tiny", "--workers", "4",
             "--artifacts-dir", "store", "--json", "--progress"]
        )
        assert arguments.scale == "tiny"
        assert arguments.workers == 4
        assert arguments.artifacts_dir == "store"
        assert arguments.as_json and arguments.progress

    def test_invalid_scale_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig5", "--scale", "huge"])

    def test_fault_tolerance_flags_default_to_none(self):
        # None = "not given": only explicit flags override the config's
        # own defaults, so `repro run` stays on the legacy fast path.
        arguments = build_parser().parse_args(["run", "fig5"])
        assert arguments.on_error is None
        assert arguments.retries is None
        assert arguments.task_timeout is None

    def test_fault_tolerance_flags_parse(self):
        arguments = build_parser().parse_args(
            ["run", "fig5", "--on-error", "collect", "--retries", "3",
             "--task-timeout", "2.5"]
        )
        assert arguments.on_error == "collect"
        assert arguments.retries == 3
        assert arguments.task_timeout == 2.5

    def test_unknown_error_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "fig5", "--on-error", "explode"]
            )

    def test_invalid_retries_exits_2(self, capsys):
        assert main(["run", "fig5", "--retries", "-1"]) == 2
        assert "retries" in capsys.readouterr().err

    def test_replay_requires_artifacts_dir(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["replay", "fig5"])

    def test_scales_cover_presets(self):
        assert set(SCALES) == {"micro", "tiny", "small", "full"}
        config = SCALES["micro"]()
        assert config.images_per_class == 6

    def test_micro_scale_matches_golden_fixture_scale(self):
        from tests.experiments.goldens import MICRO

        assert SCALES["micro"]() == MICRO


class TestPluginModules:
    def test_env_named_module_registers_before_dispatch(
        self, tmp_path, monkeypatch, capsys
    ):
        (tmp_path / "plugin_sweeps.py").write_text(
            "from repro.experiments import api\n"
            "\n"
            "class PluginExp(api.Experiment):\n"
            "    name = 'plugin-exp'\n"
            "    title = 'Plugin demo'\n"
            "    headers = ['n']\n"
            "\n"
            "    def axes(self, ctx):\n"
            "        return [api.Axis('n', (1,))]\n"
            "\n"
            "    def compute_cell(self, key, state, cell, extra):\n"
            "        return [cell['n']]\n"
            "\n"
            "    def assemble(self, ctx, results, scalars):\n"
            "        return api.TableResult(self.headers, list(results))\n"
            "\n"
            "api.register_experiment(PluginExp.name, PluginExp)\n",
            encoding="utf-8",
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        monkeypatch.setenv("REPRO_EXPERIMENT_MODULES", "plugin_sweeps")
        try:
            assert main(["list"]) == 0
            assert "plugin-exp" in capsys.readouterr().out
            assert main(["run", "plugin-exp", "--scale", "micro", "--json"]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["rows"] == [[1]]
        finally:
            unregister_experiment("plugin-exp")

    def test_module_that_does_not_import_exits_2_naming_it(
        self, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_EXPERIMENT_MODULES", "no_such_module")
        assert main(["list"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: REPRO_EXPERIMENT_MODULES")
        assert "'no_such_module'" in err


class TestList:
    def test_lists_builtin_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig2", "fig3", "fig5", "fig6", "fig7", "fig8", "fig9"):
            assert name in out
        assert "sensitivity" in out  # titles are shown


class TestRunAndReplay:
    def test_unknown_experiment_exits_2_listing_known(self, capsys):
        assert main(["run", "nope"]) == 2
        err = capsys.readouterr().err
        assert "nope" in err and "fig5" in err

    def test_run_replay_round_trip(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        base = ["fig3", "--scale", "micro", "--artifacts-dir", store_dir]

        assert main(["run", *base, "--progress"]) == 0
        captured = capsys.readouterr()
        assert "Removed HF bands" in captured.out
        assert "fig3: " in captured.err  # progress ticks
        assert "misses" in captured.err

        # Second invocation is a pure warm replay.
        assert main(["replay", *base, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == "fig3"
        assert payload["headers"][0] == "Removed HF bands"
        assert len(payload["rows"]) == 5
        assert payload["store"]["misses"] == 0
        assert payload["store"]["hits"] > 0

    def test_replay_of_cold_store_fails(self, tmp_path, capsys):
        store_dir = str(tmp_path / "cold")
        assert main(
            ["replay", "fig3", "--scale", "micro", "--artifacts-dir", store_dir]
        ) == 1
        assert "not warm" in capsys.readouterr().err

    @staticmethod
    def _run_json(capsys, *args):
        assert main([*args, "--scale", "micro", "--json"]) == 0
        return json.loads(capsys.readouterr().out)

    @staticmethod
    def _overwrite(store_dir, value, only=lambda stored: True):
        """Rewrite matching store entries as ``{"value": value}``."""
        paths = [
            path for path in Path(store_dir).rglob("*.json")
            if only(json.loads(path.read_text(encoding="utf-8"))["value"])
        ]
        for path in paths:
            path.write_text(json.dumps({"value": value}), encoding="utf-8")
        return len(paths)

    def test_undecodable_entries_are_recomputed(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        run = ["run", "fig5", "--workers", "2", "--artifacts-dir", store_dir]
        cold = self._run_json(capsys, *run)
        assert self._overwrite(store_dir, {"x": 1}) == 45
        poisoned = self._run_json(capsys, *run)
        assert poisoned["rows"] == cold["rows"]
        assert poisoned["store"]["misses"] == 45
        # The recomputed entries overwrote the undecodable ones.
        warm = self._run_json(capsys, *run)
        assert warm["rows"] == cold["rows"]
        assert warm["store"]["misses"] == 0

    def test_deeply_nested_entry_is_recomputed(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        run = ["run", "fig5", "--workers", "1", "--artifacts-dir", store_dir]
        cold = self._run_json(capsys, *run)
        entry = sorted(Path(store_dir).rglob("*.json"))[0]
        entry.write_text("[" * 200_000, encoding="utf-8")
        nested = self._run_json(capsys, *run)
        assert nested["rows"] == cold["rows"]
        assert nested["store"]["misses"] == 1

    def test_fifo_entry_is_recomputed(self, tmp_path, capsys):
        # A FIFO at an entry's path blocked a plain open() forever; the
        # warm run is a child process, so a blocked read fails the test
        # on the timeout instead of hanging it.
        store_dir = str(tmp_path / "store")
        run = ["run", "fig5", "--workers", "1", "--artifacts-dir", store_dir]
        cold = self._run_json(capsys, *run)
        entry = sorted(Path(store_dir).rglob("*.json"))[0]
        entry.unlink()
        os.mkfifo(entry)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [
            os.path.dirname(os.path.dirname(repro.__file__)),
            env.get("PYTHONPATH"),
        ]))
        child = subprocess.run(
            [sys.executable, "-m", "repro", *run, "--scale", "micro",
             "--json"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert child.returncode == 0, child.stderr
        warm = json.loads(child.stdout)
        assert warm["rows"] == cold["rows"]
        assert warm["store"]["misses"] == 1
        assert entry.is_file()

    def test_undecodable_design_is_refitted(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        run = ["run", "fig7", "--artifacts-dir", store_dir]
        cold = self._run_json(capsys, *run)

        def is_design(stored):
            return isinstance(stored, dict) and "segmentation" in stored

        assert self._overwrite(store_dir, {"table": 1}, is_design) == 1
        poisoned = self._run_json(capsys, *run)
        assert poisoned["rows"] == cold["rows"]
        assert poisoned["store"]["misses"] == 1
        warm = self._run_json(capsys, *run)
        assert warm["store"]["misses"] == 0

    def test_every_registered_experiment_runs_by_name(self, tmp_path, capsys):
        """Acceptance: `python -m repro run <name>` works for all figures.

        One shared store so the fitted design and the embedded Fig. 5
        sweeps behind fig6/7/8/9 are computed once (as in the example
        loop).
        """
        store_dir = str(tmp_path / "store")
        for name in ("fig2", "fig3", "fig5", "fig6", "fig7", "fig8", "fig9"):
            assert main(
                ["run", name, "--scale", "micro", "--artifacts-dir", store_dir,
                 "--json"]
            ) == 0, name
            payload = json.loads(capsys.readouterr().out)
            assert payload["experiment"] == name
            assert payload["rows"], name

    def test_custom_experiment_runnable_by_name(self, tmp_path, capsys):
        class CliSquares(Experiment):
            """The README "declaring a new experiment" template shape."""

            name = "cli-squares"
            title = "CLI demo"
            headers = ["n", "value"]
            defaults = {}

            def axes(self, ctx):
                return [api.Axis("n", (2, 3))]

            def compute_cell(self, key, state, cell, extra):
                return [cell["n"], cell["n"] ** 2]

            def assemble(self, ctx, results, scalars):
                return api.TableResult(self.headers, list(results))

        register_experiment(CliSquares.name, CliSquares)
        try:
            store_dir = str(tmp_path / "store")
            assert main(
                ["run", "cli-squares", "--scale", "micro", "--workers", "2",
                 "--artifacts-dir", store_dir, "--json"]
            ) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["rows"] == [[2, 4], [3, 9]]
            assert payload["store"]["misses"] > 0
            # Warm replay by name, still through the CLI.
            assert main(
                ["replay", "cli-squares", "--scale", "micro",
                 "--artifacts-dir", store_dir, "--json"]
            ) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["rows"] == [[2, 4], [3, 9]]
            assert payload["store"]["misses"] == 0
        finally:
            unregister_experiment(CliSquares.name)
