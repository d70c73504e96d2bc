"""Integration tests: every figure experiment runs end to end at micro scale.

These tests verify the experiment plumbing (structure of the results, table
rendering, derived quantities), not the statistical conclusions —
``benchmarks/test_bench_fig*.py`` check those at the ``tiny`` scale and
``examples/reproduce_paper.py`` reproduces them at the ``small`` one.
"""

import numpy as np
import pytest

from repro.core.pipeline import DeepNJpeg
from repro.experiments import (
    ExperimentConfig,
    build_experiment,
    fig3_feature_removal,
    fig5_band_sensitivity,
    fig7_methods,
    fig8_generality,
    run_experiment,
)
from repro.experiments.design_flow import derive_design_config
from repro.jpeg.blocks import image_dct
from repro.jpeg.zigzag import ZIGZAG_ORDER

#: Smallest configuration that still exercises every code path.
MICRO = ExperimentConfig(
    images_per_class=6, image_size=16, epochs=2, batch_size=8
)
#: Anchors reused across tests to avoid re-running the Fig. 5 sweeps.
FIXED_ANCHORS = {"q1": 60.0, "q2": 20.0, "q_min": 5.0}


class TestDesignFlow:
    def test_derive_from_fixed_anchors(self):
        config = derive_design_config(MICRO, anchors=FIXED_ANCHORS,
                                      safety_factor=1.0)
        assert config.q1 == 60.0
        assert config.q2 == 20.0
        assert config.q_min == 5.0

    def test_safety_factor_scales_anchors(self):
        config = derive_design_config(
            MICRO, anchors=FIXED_ANCHORS, safety_factor=0.5
        )
        assert config.q1 == 30.0
        assert config.q2 == 10.0

    def test_q_min_ceiling_applied(self):
        config = derive_design_config(
            MICRO, anchors={"q1": 100.0, "q2": 80.0, "q_min": 40.0},
            q_min_ceiling=8.0,
        )
        assert config.q_min == 8.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            derive_design_config(MICRO, anchors={"q1": 10.0})
        with pytest.raises(ValueError):
            derive_design_config(MICRO, anchors=FIXED_ANCHORS, safety_factor=0.0)


class TestFig2:
    def test_runs_and_reports(self):
        result = run_experiment(
            build_experiment("fig2"), MICRO, quality_factors=(100, 20)
        )
        assert len(result.entries) == 2
        assert result.entries[0].quality == 100
        assert result.entries[0].compression_ratio == pytest.approx(1.0)
        assert result.entries[1].compression_ratio > 1.0
        curves = result.epoch_curves()
        assert len(curves[20]) == MICRO.epochs
        assert "QF=100" in result.format_table()
        assert all(np.isfinite(entry.case1_accuracy) for entry in result.entries)


@pytest.fixture
def image_stack(rng):
    """Three 13x21 images: their blocks straddle the right and bottom edges.

    The pixels stay away from 0 and 255, so removing bands clips nothing.
    """
    return rng.uniform(64.0, 192.0, (3, 13, 21))


class TestFig3:
    def test_removal_operation_is_identity_for_zero(self, image_stack):
        unchanged = fig3_feature_removal.remove_high_frequency_components(
            image_stack, 0
        )
        assert unchanged.tobytes() == image_stack.tobytes()
        assert not np.shares_memory(unchanged, image_stack)

    def test_removal_reduces_high_band_energy(self, image_stack):
        removed = ZIGZAG_ORDER[64 - 12:]
        degraded = fig3_feature_removal.remove_high_frequency_components(
            image_stack, 12
        )
        assert degraded.shape == image_stack.shape
        assert 0.0 < degraded.min() and degraded.max() < 255.0
        # A block that straddles an edge is padded again by edge
        # replication, which refills its bands; whole blocks keep them zero.
        coefficients, _ = image_dct(degraded)
        whole = coefficients[:, :13 // 8, :21 // 8].reshape(-1, 64)
        assert np.abs(whole[:, removed]).max() < 1e-9
        original, _ = image_dct(image_stack)
        assert np.abs(original.reshape(-1, 64)[:, removed]).max() > 1.0

    def test_removal_treats_each_image_alone(self, image_stack):
        together = fig3_feature_removal.remove_high_frequency_components(
            image_stack, 6
        )
        for index in range(len(image_stack)):
            alone = fig3_feature_removal.remove_high_frequency_components(
                image_stack[index:index + 1], 6
            )
            assert alone[0].tobytes() == together[index].tobytes()

    def test_removal_validates_arguments(self, image_stack):
        with pytest.raises(ValueError):
            fig3_feature_removal.remove_high_frequency_components(
                image_stack, 64
            )
        with pytest.raises(ValueError):
            fig3_feature_removal.remove_high_frequency_components(
                image_stack[0], 6
            )

    def test_runs_and_reports(self):
        result = run_experiment(
            build_experiment("fig3"), MICRO, removed_components=(0, 6)
        )
        assert len(result.entries) == 2
        assert result.entries[0].flipped_fraction == 0.0
        assert result.entries[1].mean_psnr > 20.0
        assert "Removed HF bands" in result.format_table()


class TestFig5:
    def test_runs_and_derives_anchors(self):
        sweeps = {"LF": (1, 5), "MF": (1, 40), "HF": (1, 80)}
        result = run_experiment(
            build_experiment("fig5"), MICRO, step_sweeps=sweeps
        )
        assert len(result.entries) == 2 * 3 * 2
        anchors = result.derived_anchors()
        assert set(anchors) == {"q1", "q2", "q_min"}
        assert anchors["q_min"] <= anchors["q2"] <= anchors["q1"]
        assert "Segmentation" in result.format_table()

    def test_neutral_step_stops_at_first_drop(self):
        result = fig5_band_sensitivity.Fig5Result(baseline_accuracy=1.0)
        for step, accuracy in [(1, 1.0), (10, 1.0), (20, 0.5), (40, 1.0)]:
            result.entries.append(
                fig5_band_sensitivity.Fig5Entry(
                    method="magnitude", group="HF", step=float(step),
                    accuracy=accuracy, normalized_accuracy=accuracy,
                )
            )
        assert result.largest_neutral_step("magnitude", "HF") == 10.0

    def test_group_table_builder(self):
        from repro.analysis.bands import position_based_segmentation

        table = fig5_band_sensitivity.group_quantization_table(
            position_based_segmentation(), "HF", 40
        )
        assert table.values.max() == 40
        assert table.values.min() == 1


class TestFig6:
    def test_runs_and_selects_k3(self):
        result = run_experiment(
            build_experiment("fig6"), MICRO, k3_values=(1.0, 3.0),
            anchors=FIXED_ANCHORS,
        )
        assert len(result.entries) == 2
        assert result.best_k3() in (1.0, 3.0)
        assert all(entry.compression_ratio > 1.0 for entry in result.entries)
        assert "LF slope" in result.format_table()


class TestFig7:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment(
            build_experiment("fig7"),
            MICRO,
            deepn_config=derive_design_config(MICRO, anchors=FIXED_ANCHORS),
            rmhf_components=(3,),
            sameq_steps=(8,),
        )

    def test_candidate_set(self, result):
        methods = [entry.method for entry in result.entries]
        assert methods == ["Original", "RM-HF3", "SAME-Q8", "DeepN-JPEG"]

    def test_fitted_pipeline_is_the_deepn_candidate(self, small_freqnet):
        deepn = DeepNJpeg().fit(small_freqnet)
        candidates = fig7_methods.candidate_compressors(deepn)
        assert candidates[-1] is deepn
        assert candidates[-1].name == "DeepN-JPEG"

    def test_original_is_reference(self, result):
        assert result.entries[0].compression_ratio == pytest.approx(1.0)

    def test_deepn_has_best_compression(self, result):
        ratios = {entry.method: entry.compression_ratio for entry in result.entries}
        assert ratios["DeepN-JPEG"] == max(ratios.values())

    def test_lookup_and_sizes(self, result):
        sizes = result.bytes_per_image_by_method()
        assert set(sizes) == {"Original", "RM-HF3", "SAME-Q8", "DeepN-JPEG"}
        assert sizes["RM-HF3"] > 0


class TestFig8:
    def test_runs_for_two_models(self):
        result = run_experiment(
            build_experiment("fig8"),
            MICRO,
            model_names=("AlexNet", "ResNet-34"),
            deepn_config=derive_design_config(MICRO, anchors=FIXED_ANCHORS),
            epochs=1,
        )
        assert [(entry.model, entry.method) for entry in result.entries] == [
            (model, method)
            for model in ("AlexNet", "ResNet-34")
            for method in fig8_generality.FIG8_METHODS
        ]
        assert all(0.0 <= entry.accuracy <= 1.0 for entry in result.entries)


class TestFig9:
    def test_from_precomputed_sizes(self):
        result = run_experiment(
            build_experiment("fig9"),
            MICRO,
            bytes_per_method={
                "Original": 1000.0, "RM-HF3": 950.0,
                "SAME-Q4": 700.0, "DeepN-JPEG": 300.0,
            },
        )
        power = {entry.method: entry.normalized_power for entry in result.entries}
        assert power["Original"] == pytest.approx(1.0)
        assert power["DeepN-JPEG"] == pytest.approx(0.3)
        assert "Normalized power" in result.format_table()

    def test_power_ordering_matches_size_ordering(self):
        result = run_experiment(
            build_experiment("fig9"),
            MICRO,
            bytes_per_method={"Original": 1000.0, "DeepN-JPEG": 250.0},
        )
        power = {entry.method: entry.normalized_power for entry in result.entries}
        assert power["DeepN-JPEG"] < power["Original"]
