"""The declarative experiment API: grid declaration, registry, driver.

The custom ``squares`` experiment registered here is the acceptance
check for third-party sweeps: declared axes + cell function only, yet it
gets caching, resume, sharding and progress from the framework — by
name, exactly like the built-in figures.
"""

import json

import pytest

from repro.experiments import ExperimentConfig
from repro.experiments import api
from repro.experiments.api import (
    Axis,
    Experiment,
    build_experiment,
    experiment_names,
    grid_cells,
    register_experiment,
    run_experiment,
    unregister_experiment,
)
from repro.experiments.store import ArtifactStore
from repro.runtime.executor import CACHE_MISS

MICRO = ExperimentConfig(
    images_per_class=6, image_size=16, epochs=2, batch_size=8
)


class TestAxis:
    def test_single_key_axis(self):
        axis = Axis("quality", (100, 50))
        assert axis.keys() == ("quality",)
        assert axis.cell_updates() == [{"quality": 100}, {"quality": 50}]

    def test_linked_key_axis(self):
        axis = Axis(("group", "step"), [("LF", 1.0), ("HF", 20.0)])
        assert axis.keys() == ("group", "step")
        assert axis.cell_updates() == [
            {"group": "LF", "step": 1.0},
            {"group": "HF", "step": 20.0},
        ]

    def test_linked_axis_arity_mismatch(self):
        axis = Axis(("a", "b"), [(1, 2, 3)])
        with pytest.raises(ValueError, match="expects 2-tuples"):
            axis.cell_updates()

    def test_duplicate_keys_within_one_axis_rejected(self):
        with pytest.raises(ValueError, match="duplicate key"):
            Axis(("group", "group"), [("LF", 5.0)])


class TestGridCells:
    def test_last_axis_fastest(self):
        cells = grid_cells(
            [Axis("model", ("A", "B")), Axis("method", ("x", "y"))]
        )
        assert cells == [
            {"model": "A", "method": "x"},
            {"model": "A", "method": "y"},
            {"model": "B", "method": "x"},
            {"model": "B", "method": "y"},
        ]

    def test_empty_axes_is_single_empty_cell(self):
        assert grid_cells([]) == [{}]

    def test_duplicate_axis_keys_rejected(self):
        with pytest.raises(ValueError, match="duplicate axis key"):
            grid_cells([Axis("k", (1,)), Axis(("k", "j"), [(2, 3)])])


class TestRegistry:
    def test_builtin_figures_registered(self):
        assert set(experiment_names()) >= {
            "fig2", "fig3", "fig5", "fig6", "fig7", "fig8", "fig9"
        }

    def test_duplicate_registration_raises(self):
        with pytest.raises(ValueError, match="already registered"):
            register_experiment("fig5", Experiment)

    def test_unknown_name_raises_keyerror_listing_known(self):
        with pytest.raises(KeyError) as exc_info:
            build_experiment("nope")
        message = str(exc_info.value)
        assert "nope" in message
        assert "fig5" in message  # the known experiments are listed

    def test_unregister_is_idempotent(self):
        unregister_experiment("never-registered")  # no error

    def test_build_returns_fresh_instance(self):
        assert build_experiment("fig5") is not build_experiment("fig5")


class SquaresExperiment(Experiment):
    """Minimal third-party experiment: n -> offset + n**2.

    The offset lives in the shared state (derived from the config seed),
    so the test also proves that state building, fork-sharding and
    caching compose for experiments the framework has never seen.
    """

    name = "squares"
    title = "Squares demo sweep"
    headers = ["n", "value"]
    defaults = {"values": (1, 2, 3, 4)}

    #: Cell-function invocation counter (visible in the parent process
    #: only for workers=1 runs; used to assert warm-store replays).
    calls = 0

    def axes(self, ctx):
        return [Axis("n", tuple(int(n) for n in ctx.params["values"]))]

    def build_state(self, ctx):
        return {"offset": ctx.config.dataset_seed * 100}

    def compute_cell(self, key, state, cell, extra):
        type(self).calls += 1
        return {"n": cell["n"], "value": state["offset"] + cell["n"] ** 2}

    def assemble(self, ctx, results, scalars):
        return list(results)


@pytest.fixture()
def squares_registered():
    register_experiment(SquaresExperiment.name, SquaresExperiment)
    SquaresExperiment.calls = 0
    try:
        yield
    finally:
        unregister_experiment(SquaresExperiment.name)


class TestCustomExperiment:
    def test_runnable_by_name_with_framework_caching_and_sharding(
        self, squares_registered, tmp_path
    ):
        store = ArtifactStore(str(tmp_path / "store"))
        expected = [
            {"n": n, "value": MICRO.dataset_seed * 100 + n * n}
            for n in (1, 2, 3, 4)
        ]

        cold = run_experiment(build_experiment("squares"), MICRO, store=store)
        assert cold == expected
        assert store.misses > 0 and len(store) == 4

        # Warm replay: entry-identical, zero cell recomputation.
        SquaresExperiment.calls = 0
        warm = run_experiment(build_experiment("squares"), MICRO, store=store)
        assert warm == expected
        assert SquaresExperiment.calls == 0
        assert store.misses == 4  # only the cold run missed

        # Sharded run (fresh store): identical results under workers=4.
        parallel_store = ArtifactStore(str(tmp_path / "parallel"))
        parallel = run_experiment(
            build_experiment("squares"),
            MICRO.with_overrides(workers=4),
            store=parallel_store,
        )
        assert parallel == expected

    def test_unknown_parameter_rejected(self, squares_registered):
        with pytest.raises(TypeError, match="unknown parameter"):
            run_experiment(build_experiment("squares"), MICRO, valeus=(1,))

    def test_progress_counts_cached_and_fresh_cells(
        self, squares_registered, tmp_path
    ):
        store = ArtifactStore(str(tmp_path / "store"))
        ticks = []
        run_experiment(
            build_experiment("squares"), MICRO, store=store,
            progress=lambda done, total: ticks.append((done, total)),
        )
        assert ticks == [(0, 4), (1, 4), (2, 4), (3, 4), (4, 4)]

        # Partially warm: poison one cell file so exactly one recomputes.
        ticks.clear()
        removed = 0
        for path in sorted((tmp_path / "store").rglob("*.json"))[:1]:
            path.write_text("{corrupted", encoding="utf-8")
            removed += 1
        assert removed == 1
        run_experiment(
            build_experiment("squares"), MICRO, store=store,
            progress=lambda done, total: ticks.append((done, total)),
        )
        assert ticks == [(3, 4), (4, 4)]

        # Fully warm: one terminal tick so a --progress replay is not
        # silent.
        ticks.clear()
        run_experiment(
            build_experiment("squares"), MICRO, store=store,
            progress=lambda done, total: ticks.append((done, total)),
        )
        assert ticks == [(4, 4)]

    def test_resume_interleaves_cached_and_fresh_in_order(
        self, squares_registered, tmp_path
    ):
        store = ArtifactStore(str(tmp_path / "store"))
        run_experiment(
            build_experiment("squares"), MICRO, store=store, values=(1, 3)
        )
        # A superset sweep reuses the two completed cells and computes
        # only the new ones, in deterministic grid order.
        SquaresExperiment.calls = 0
        result = run_experiment(
            build_experiment("squares"), MICRO, store=store,
            values=(1, 2, 3, 4),
        )
        assert [entry["n"] for entry in result] == [1, 2, 3, 4]
        assert SquaresExperiment.calls == 2


class TestUnregisteredInstance:
    def test_unregistered_experiment_runs_and_leaves_no_registration(
        self, tmp_path
    ):
        """Cells dispatch to the passed instance, registered or not."""
        store = ArtifactStore(str(tmp_path / "store"))
        experiment = SquaresExperiment()
        assert "squares" not in experiment_names()
        result = run_experiment(
            experiment, MICRO.with_overrides(workers=2), store=store,
            values=(2, 5),
        )
        assert [entry["n"] for entry in result] == [2, 5]
        # The temporary pin is removed once the run finishes.
        assert "squares" not in experiment_names()

    def test_shadowed_name_still_dispatches_to_passed_instance(self):
        class Wrong(Experiment):
            name = "squares"

            def compute_cell(self, key, state, cell, extra):
                raise AssertionError("the wrong experiment computed a cell")

        # "squares" resolves to Wrong in the registry, but the instance
        # passed to run_experiment must win for its cells.
        register_experiment("squares", Wrong)
        try:
            passed = SquaresExperiment()
            result = run_experiment(
                passed, MICRO.with_overrides(workers=2), values=(3, 4)
            )
            assert result == [
                {"n": n, "value": MICRO.dataset_seed * 100 + n * n}
                for n in (3, 4)
            ]
            assert isinstance(build_experiment("squares"), Wrong)
        finally:
            unregister_experiment("squares")


class TestTableResult:
    def test_rows_and_format(self):
        result = api.TableResult(["a", "b"], [[1, 2.5], [3, 4.0]])
        assert result.rows() == [[1, 2.5], [3, 4.0]]
        table = result.format_table()
        assert "a" in table and "2.500" in table


class TestExperimentDeclarationErrors:
    def test_missing_name_rejected(self):
        with pytest.raises(ValueError, match="declares no name"):
            run_experiment(Experiment(), MICRO)


class TestConfigOverrides:
    def test_with_overrides_accepts_known_fields(self):
        assert MICRO.with_overrides(workers=3).workers == 3

    def test_with_overrides_rejects_unknown_fields(self):
        with pytest.raises(ValueError) as exc_info:
            MICRO.with_overrides(wrokers=3)
        message = str(exc_info.value)
        assert "wrokers" in message
        assert "workers" in message  # valid fields are listed

    def test_with_overrides_lists_all_unknowns(self):
        with pytest.raises(ValueError, match="'epohcs', 'wrokers'"):
            MICRO.with_overrides(wrokers=3, epohcs=1)


class TestCorruptedStore:
    def test_corrupted_artifact_is_a_miss_and_overwritten(
        self, tmp_path, caplog
    ):
        store = ArtifactStore(str(tmp_path / "store"))
        key = store.key({"cell": "x"})
        store.put(key, {"value": 1})
        path = tmp_path / "store" / key[:2] / f"{key}.json"
        path.write_text('{"value": 1', encoding="utf-8")  # truncated

        with caplog.at_level("WARNING", logger="repro.experiments.store"):
            assert store.get(key) is None
        assert store.misses == 1 and store.hits == 0
        assert any("corrupted" in record.message for record in caplog.records)

        # The poisoned file is atomically overwritten by the next put.
        store.put(key, {"value": 2})
        assert store.get(key) == {"value": 2}
        assert json.loads(path.read_text(encoding="utf-8")) == {"value": 2}

    def test_unwrapped_valid_json_is_a_sweep_cache_miss(
        self, tmp_path, caplog
    ):
        """Tampering that stays valid JSON must not crash the sweep."""
        from repro.experiments.store import SweepCache
        from repro.runtime.executor import CACHE_MISS

        store = ArtifactStore(str(tmp_path / "store"))
        cache = SweepCache(store, "figx", MICRO)
        cache.record({"cell": 1}, 42)
        key = cache.key({"cell": 1})
        path = tmp_path / "store" / key[:2] / f"{key}.json"
        path.write_text("[1, 2]", encoding="utf-8")  # valid JSON, no wrapper

        with caplog.at_level("WARNING", logger="repro.experiments.store"):
            assert cache.lookup({"cell": 1}) is CACHE_MISS
        assert store.misses == 1 and store.hits == 0
        assert any("wrapped" in record.message for record in caplog.records)
        # Recording again overwrites the tampered file and reads back.
        cache.record({"cell": 1}, 43)
        assert cache.lookup({"cell": 1}) == 43

        # A wrapped value the figure's decoder rejects is a miss too.
        decoding = SweepCache(store, "figx", MICRO, from_payload=float)
        path.write_text('{"value": {"x": 1}}', encoding="utf-8")
        caplog.clear()
        with caplog.at_level("WARNING", logger="repro.experiments.store"):
            assert decoding.lookup({"cell": 1}) is CACHE_MISS
        assert store.misses == 2 and store.hits == 1
        assert any(
            key in record.message and "does not decode" in record.message
            for record in caplog.records
        )
        decoding.record({"cell": 1}, 44.0)
        assert decoding.lookup({"cell": 1}) == 44.0
