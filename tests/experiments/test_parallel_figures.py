"""Worker-count determinism of the experiment sweeps.

Every figure grid must produce identical results — entries, ordering,
trained-classifier accuracies — for ``workers=1`` and ``workers=4``.
Each run builds its own state, so the parallel run reuses nothing of the
serial run's.
"""

import pytest

from repro.experiments import (
    ExperimentConfig,
    api,
    build_experiment,
    run_experiment,
)
from repro.experiments.design_flow import derive_design_config

#: Smallest configuration that still exercises every code path.
MICRO = ExperimentConfig(
    images_per_class=6, image_size=16, epochs=2, batch_size=8
)
MICRO_PARALLEL = MICRO.with_overrides(workers=4)
FIXED_ANCHORS = {"q1": 60.0, "q2": 20.0, "q_min": 5.0}


def test_workers_knob_validated():
    with pytest.raises(ValueError):
        ExperimentConfig(workers=-1)


def test_task_key_normalises_workers():
    assert MICRO_PARALLEL.task_key() == MICRO.task_key()
    assert MICRO_PARALLEL.task_key().workers == 1


def test_fig5_entries_identical_across_worker_counts():
    fig5 = build_experiment("fig5")
    sweeps = {"LF": (1, 5), "MF": (1, 40), "HF": (1, 80)}
    serial = run_experiment(fig5, MICRO, step_sweeps=sweeps)
    parallel = run_experiment(fig5, MICRO_PARALLEL, step_sweeps=sweeps)
    assert serial.baseline_accuracy == parallel.baseline_accuracy
    assert serial.entries == parallel.entries
    assert serial.derived_anchors() == parallel.derived_anchors()


def test_fig6_classifier_accuracies_identical_across_worker_counts():
    fig6 = build_experiment("fig6")
    params = {"k3_values": (1.0, 3.0), "anchors": FIXED_ANCHORS}
    serial = run_experiment(fig6, MICRO, **params)
    parallel = run_experiment(fig6, MICRO_PARALLEL, **params)
    # Each worker trains its own classifier from the config seeds; the
    # resulting accuracies must match the in-process training exactly.
    assert serial.baseline_accuracy == parallel.baseline_accuracy
    assert serial.entries == parallel.entries


def test_fig2_entries_identical_across_worker_counts():
    fig2 = build_experiment("fig2")
    serial = run_experiment(fig2, MICRO, quality_factors=(100, 20))
    parallel = run_experiment(fig2, MICRO_PARALLEL, quality_factors=(100, 20))
    assert serial.entries == parallel.entries


def test_fig3_entries_identical_across_worker_counts():
    fig3 = build_experiment("fig3")
    serial = run_experiment(fig3, MICRO, removed_components=(0, 6))
    parallel = run_experiment(fig3, MICRO_PARALLEL, removed_components=(0, 6))
    assert serial.entries == parallel.entries


def test_fig7_entries_identical_across_worker_counts():
    """fig7 is the one sweep that pickles live compressor objects
    (including a fitted DeepN-JPEG pipeline) into its tasks."""
    fig7 = build_experiment("fig7")
    params = {
        "deepn_config": derive_design_config(MICRO, anchors=FIXED_ANCHORS),
        "rmhf_components": (3,),
        "sameq_steps": (8,),
    }
    serial = run_experiment(fig7, MICRO, **params)
    parallel = run_experiment(fig7, MICRO_PARALLEL, **params)
    assert serial.entries == parallel.entries
    assert parallel.entries[0].compression_ratio == 1.0


def test_fig8_entries_identical_across_worker_counts():
    """fig8's state depends on the fitted design; the workers must see
    the parent's compressed datasets through the fork."""
    fig8 = build_experiment("fig8")
    params = {
        "model_names": ("AlexNet",),
        "deepn_config": derive_design_config(MICRO, anchors=FIXED_ANCHORS),
        "epochs": 1,
    }
    serial = run_experiment(fig8, MICRO, **params)
    parallel = run_experiment(fig8, MICRO_PARALLEL, **params)
    assert serial.entries == parallel.entries


def test_fig9_entries_identical_across_worker_counts():
    fig9 = build_experiment("fig9")
    design = derive_design_config(MICRO, anchors=FIXED_ANCHORS)
    serial = run_experiment(fig9, MICRO, deepn_config=design)
    parallel = run_experiment(fig9, MICRO_PARALLEL, deepn_config=design)
    assert serial.entries == parallel.entries


def test_state_memos_released_after_sweeps():
    """Sweeps must not pin datasets/classifiers after returning."""
    run_experiment(
        build_experiment("fig5"), MICRO,
        step_sweeps={"LF": (1,), "MF": (1,), "HF": (1,)},
    )
    assert api._ACTIVE is None
    run_experiment(
        build_experiment("fig9"), MICRO,
        deepn_config=derive_design_config(MICRO, anchors=FIXED_ANCHORS),
    )
    assert api._ACTIVE is None
