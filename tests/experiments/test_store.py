"""The content-addressed artifact store and figure-sweep resume.

The headline contract: re-running any figure with the same configuration
and a warm store performs **zero codec-level recompression** — asserted
by poisoning the JPEG codecs' batch entry points during the second run —
and returns entry-for-entry identical results.
"""

import pytest

import repro.jpeg.codec as jpeg_codec
from repro.core.pipeline import DeepNJpeg
from repro.experiments import build_experiment, run_experiment
from repro.experiments.common import ExperimentConfig
from repro.experiments.store import ArtifactStore, SweepCache, config_payload
from repro.runtime.executor import CACHE_MISS, map_tasks_resumable

#: Smallest configuration that still exercises every code path.
MICRO = ExperimentConfig(
    images_per_class=6, image_size=16, epochs=2, batch_size=8
)
#: Fixed anchors so the fig6/7/8 resume tests need no fig5 sweep.
FIXED_ANCHORS = {"q1": 60.0, "q2": 20.0, "q_min": 5.0}


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(str(tmp_path / "artifacts"))


@pytest.fixture()
def no_recompression(monkeypatch):
    """Make codec-level (re)compression and re-fitting an error."""

    def _activate():
        def poisoned(self, *args, **kwargs):
            raise AssertionError(
                "codec-level recompression ran during a warm-store replay"
            )

        def poisoned_fit(self, *args, **kwargs):
            raise AssertionError(
                "DeepN-JPEG was re-fitted during a warm-store replay"
            )

        monkeypatch.setattr(
            jpeg_codec.GrayscaleJpegCodec, "compress_batch", poisoned
        )
        monkeypatch.setattr(jpeg_codec.GrayscaleJpegCodec, "compress", poisoned)
        monkeypatch.setattr(DeepNJpeg, "fit", poisoned_fit)

    return _activate


class TestArtifactStore:
    def test_put_get_round_trip(self, store):
        key = store.key({"figure": "x", "cell": 1})
        assert store.get(key) is None
        assert store.misses == 1
        store.put(key, {"value": [1.5, "two"]})
        assert key in store
        assert store.get(key) == {"value": [1.5, "two"]}
        assert store.hits == 1
        assert len(store) == 1

    def test_keys_are_content_addressed(self, store):
        first = store.key({"cell": {"a": 1, "b": 2}})
        second = store.key({"cell": {"b": 2, "a": 1}})
        assert first == second  # key order never matters
        assert first != store.key({"cell": {"a": 1, "b": 3}})

    def test_config_payload_normalises_workers(self):
        assert config_payload(MICRO) == config_payload(
            MICRO.with_overrides(workers=4)
        )

    def test_overwrite_is_atomic_replace(self, store):
        key = store.key({"cell": "x"})
        store.put(key, 1)
        store.put(key, 2)
        assert store.get(key) == 2
        assert len(store) == 1

    def _leftover_temp_files(self, store):
        import os

        return [
            name
            for _, _, files in os.walk(store.root)
            for name in files
            if name.endswith(".tmp")
        ]

    def test_put_unserialisable_payload_cleans_up(self, store):
        from repro.experiments.store import ArtifactStoreError

        key = store.key({"cell": "bad"})
        with pytest.raises(ArtifactStoreError, match=key) as exc_info:
            store.put(key, {"value": object()})
        assert isinstance(exc_info.value.__cause__, TypeError)
        assert self._leftover_temp_files(store) == []
        assert key not in store
        assert len(store) == 0

    def test_put_rename_failure_cleans_up(self, store, monkeypatch):
        # A full disk / permission error surfacing at the atomic rename:
        # the temp file must be removed and the error must name key+path.
        import errno
        import os

        from repro.experiments.store import ArtifactStoreError

        real_replace = os.replace

        def poisoned(src, dst, *args, **kwargs):
            if str(dst).startswith(store.root):
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_replace(src, dst, *args, **kwargs)

        monkeypatch.setattr(os, "replace", poisoned)
        key = store.key({"cell": "enospc"})
        with pytest.raises(ArtifactStoreError, match="No space left"):
            store.put(key, {"value": 1})
        assert self._leftover_temp_files(store) == []
        assert key not in store

    def test_put_failure_never_clobbers_existing_artifact(
        self, store, monkeypatch
    ):
        import os

        from repro.experiments.store import ArtifactStoreError

        key = store.key({"cell": "keep"})
        store.put(key, {"value": "original"})
        monkeypatch.setattr(
            os, "replace",
            lambda *a, **k: (_ for _ in ()).throw(PermissionError("denied")),
        )
        with pytest.raises(ArtifactStoreError):
            store.put(key, {"value": "new"})
        monkeypatch.undo()
        assert store.get(key) == {"value": "original"}

    def test_deeply_nested_entry_is_a_miss(self, store, caplog):
        key = store.key({"cell": "nested"})
        store.put(key, {"value": 1})
        with open(store._path(key), "w", encoding="utf-8") as handle:
            handle.write("[" * 200_000)
        with caplog.at_level("WARNING", logger="repro.experiments.store"):
            assert store.get(key) is None
        assert (store.hits, store.misses) == (0, 1)
        assert "RecursionError" in caplog.text
        store.put(key, {"value": 2})
        assert store.get(key) == {"value": 2}

    def test_directory_entry_is_a_miss(self, store, caplog):
        import os

        from repro.experiments.store import ArtifactStoreError

        key = store.key({"cell": "directory"})
        os.makedirs(store._path(key))
        with caplog.at_level("WARNING", logger="repro.experiments.store"):
            assert store.get(key) is None
        assert (store.hits, store.misses) == (0, 1)
        assert "IsADirectoryError" in caplog.text
        # The overwrite cannot replace a directory: put stays typed.
        with pytest.raises(ArtifactStoreError, match=key):
            store.put(key, {"value": 1})

    def test_fifo_entry_is_a_miss(self, store, caplog, without_blocking):
        import os

        key = store.key({"cell": "fifo"})
        store.put(key, {"value": 1})
        path = store._path(key)
        os.remove(path)
        os.mkfifo(path)
        with caplog.at_level("WARNING", logger="repro.experiments.store"):
            assert without_blocking(lambda: store.get(key), path) is None
        assert (store.hits, store.misses) == (0, 1)
        assert "not a regular file" in caplog.text
        # The overwrite replaces the FIFO with the entry.
        store.put(key, {"value": 2})
        assert store.get(key) == {"value": 2}

    def test_oversized_entry_is_a_miss(self, store, caplog):
        from repro.files import MAX_FILE_BYTES

        key = store.key({"cell": "oversized"})
        store.put(key, {"value": "x" * MAX_FILE_BYTES})
        with caplog.at_level("WARNING", logger="repro.experiments.store"):
            assert store.get(key) is None
        assert (store.hits, store.misses) == (0, 1)
        assert f"larger than {MAX_FILE_BYTES} bytes" in caplog.text


class TestSweepCache:
    def test_none_store_always_misses(self):
        cache = SweepCache(None, "figx", MICRO)
        assert cache.lookup({"cell": 1}) is CACHE_MISS
        cache.record({"cell": 1}, 42)  # dropped, no error
        assert cache.lookup_many([{"cell": 1}]) == [CACHE_MISS]

    def test_payload_codecs_applied(self, store):
        cache = SweepCache(
            store, "figx", MICRO,
            from_payload=tuple, to_payload=list,
        )
        cache.record({"cell": 1}, ("a", 2))
        assert cache.lookup({"cell": 1}) == ("a", 2)

    def test_none_values_are_cacheable(self, store):
        # A stored null must read back as a hit, not as CACHE_MISS.
        cache = SweepCache(store, "figx", MICRO)
        cache.record({"cell": "optional"}, None)
        assert cache.lookup({"cell": "optional"}) is None
        assert store.misses == 0

    def test_figure_name_partitions_keys(self, store):
        first = SweepCache(store, "figx", MICRO)
        second = SweepCache(store, "figy", MICRO)
        first.record({"cell": 1}, "x-value")
        assert second.lookup({"cell": 1}) is CACHE_MISS


class TestMapTasksResumable:
    def test_mixed_cache_hits(self):
        calls = []

        def square(task):
            calls.append(task)
            return task * task

        cached = [CACHE_MISS, 400, CACHE_MISS]
        fresh = []
        results = map_tasks_resumable(
            square, [1, 20, 3], cached,
            on_result=lambda index, value: fresh.append((index, value)),
        )
        assert results == [1, 400, 9]
        assert calls == [1, 3]  # the cached task never ran
        assert fresh == [(0, 1), (2, 9)]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="parallel"):
            map_tasks_resumable(lambda t: t, [1, 2], [CACHE_MISS])

    def test_none_results_are_cacheable(self):
        results = map_tasks_resumable(lambda t: None, [1], [CACHE_MISS])
        assert results == [None]

    def test_results_persist_as_they_complete(self):
        """A sweep that dies mid-run keeps its already-finished cells."""
        recorded = []

        def flaky(task):
            if task == 3:
                raise RuntimeError("boom")
            return task * 10

        with pytest.raises(RuntimeError, match="boom"):
            map_tasks_resumable(
                flaky, [1, 2, 3, 4], [CACHE_MISS] * 4,
                on_result=lambda index, value: recorded.append((index, value)),
            )
        # Everything finished before the failure was recorded, so a
        # re-run with those entries cached resumes past them.
        assert recorded == [(0, 10), (1, 20)]


def _assert_fig_entries_equal(left, right):
    assert len(left) == len(right)
    for first, second in zip(left, right):
        assert first == second


class TestFigureResume:
    """Cold run populates the store; warm run replays without codecs."""

    def test_fig2(self, store, no_recompression):
        fig2 = build_experiment("fig2")
        cold = run_experiment(fig2, MICRO, store=store, quality_factors=(100, 50))
        warm_store = ArtifactStore(store.root)
        no_recompression()
        warm = run_experiment(
            fig2, MICRO, store=warm_store, quality_factors=(100, 50)
        )
        _assert_fig_entries_equal(warm.entries, cold.entries)
        assert warm_store.misses == 0

    def test_fig3(self, store, no_recompression):
        fig3 = build_experiment("fig3")
        cold = run_experiment(
            fig3, MICRO, store=store, removed_components=(0, 3)
        )
        warm_store = ArtifactStore(store.root)
        no_recompression()
        warm = run_experiment(
            fig3, MICRO, store=warm_store, removed_components=(0, 3)
        )
        _assert_fig_entries_equal(warm.entries, cold.entries)
        assert warm_store.misses == 0

    def test_fig5(self, store, no_recompression):
        fig5 = build_experiment("fig5")
        sweeps = {"HF": (1, 20), "LF": (1, 3)}
        cold = run_experiment(fig5, MICRO, store=store, step_sweeps=sweeps)
        warm_store = ArtifactStore(store.root)
        no_recompression()
        warm = run_experiment(
            fig5, MICRO, store=warm_store, step_sweeps=sweeps
        )
        _assert_fig_entries_equal(warm.entries, cold.entries)
        assert warm.baseline_accuracy == cold.baseline_accuracy
        assert warm_store.misses == 0

    def test_fig5_partial_resume_only_runs_missing_cells(self, store):
        fig5 = build_experiment("fig5")
        run_experiment(fig5, MICRO, store=store, step_sweeps={"HF": (1, 20)})
        extended = {"HF": (1, 20, 40)}
        resumed_store = ArtifactStore(store.root)
        result = run_experiment(
            fig5, MICRO, store=resumed_store, step_sweeps=extended
        )
        # 2 methods x 2 cached steps (+ baseline) hit; the new step misses.
        assert resumed_store.hits >= 5
        assert len(result.entries) == 6
        reference = run_experiment(fig5, MICRO, step_sweeps=extended)
        _assert_fig_entries_equal(result.entries, reference.entries)

    def test_fig5_supplied_classifier_bypasses_store(self, store):
        from repro.experiments.common import make_splits, train_classifier

        train_dataset, _ = make_splits(MICRO)
        classifier = train_classifier(train_dataset, MICRO)
        run_experiment(
            build_experiment("fig5"), MICRO, store=store,
            step_sweeps={"HF": (1,)}, classifier=classifier,
        )
        assert len(store) == 0

    def test_fig6(self, store, no_recompression):
        fig6 = build_experiment("fig6")
        params = {"k3_values": (2.0, 3.0), "anchors": FIXED_ANCHORS}
        cold = run_experiment(fig6, MICRO, store=store, **params)
        warm_store = ArtifactStore(store.root)
        no_recompression()
        warm = run_experiment(fig6, MICRO, store=warm_store, **params)
        _assert_fig_entries_equal(warm.entries, cold.entries)
        assert warm.baseline_accuracy == cold.baseline_accuracy
        assert warm_store.misses == 0

    def test_fig7(self, store, no_recompression):
        fig7 = build_experiment("fig7")
        params = {
            "anchors": FIXED_ANCHORS, "rmhf_components": (3,),
            "sameq_steps": (4,),
        }
        cold = run_experiment(fig7, MICRO, store=store, **params)
        warm_store = ArtifactStore(store.root)
        no_recompression()
        warm = run_experiment(fig7, MICRO, store=warm_store, **params)
        _assert_fig_entries_equal(warm.entries, cold.entries)
        assert warm_store.misses == 0

    def test_fig8(self, store, no_recompression):
        fig8 = build_experiment("fig8")
        params = {
            "model_names": ("AlexNet",), "anchors": FIXED_ANCHORS,
            "epochs": 1,
        }
        cold = run_experiment(fig8, MICRO, store=store, **params)
        warm_store = ArtifactStore(store.root)
        no_recompression()
        warm = run_experiment(fig8, MICRO, store=warm_store, **params)
        _assert_fig_entries_equal(warm.entries, cold.entries)
        assert warm_store.misses == 0

    def test_fig9(self, store, no_recompression):
        fig9 = build_experiment("fig9")
        cold = run_experiment(fig9, MICRO, store=store)
        warm_store = ArtifactStore(store.root)
        no_recompression()
        warm = run_experiment(fig9, MICRO, store=warm_store)
        _assert_fig_entries_equal(warm.entries, cold.entries)
        assert warm_store.misses == 0

    def test_workers_share_the_store(self, store):
        """A parallel cold run populates the same addresses serial reads."""
        fig5 = build_experiment("fig5")
        sweeps = {"HF": (1, 20), "MF": (1, 10)}
        parallel = run_experiment(
            fig5, MICRO.with_overrides(workers=2), store=store,
            step_sweeps=sweeps,
        )
        warm_store = ArtifactStore(store.root)
        serial = run_experiment(
            fig5, MICRO, store=warm_store, step_sweeps=sweeps
        )
        _assert_fig_entries_equal(serial.entries, parallel.entries)
        assert warm_store.misses == 0
