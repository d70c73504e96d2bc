"""Fig. 5 benchmark: accuracy vs quantization step per frequency group.

Paper reference: with the magnitude-based segmentation the MF and HF groups
tolerate larger quantization steps than with the position-based one, and
the LF group is the most sensitive (accuracy starts dropping at Qmin = 5 on
ImageNet).
"""

from conftest import run_once

from repro.experiments import build_experiment, run_experiment


def test_fig5_band_sensitivity(benchmark, bench_config):
    result = run_once(
        benchmark, run_experiment, build_experiment("fig5"), bench_config
    )
    print("\n" + result.format_table())
    anchors = result.derived_anchors()
    print(f"\nDerived anchors: {anchors}")

    # Anchors are ordered as the mapping requires.
    assert anchors["q_min"] <= anchors["q2"] <= anchors["q1"]
    # The magnitude-based grouping never tolerates a *smaller* HF step than
    # the position-based grouping (the paper's headline for this figure).
    magnitude_hf = result.largest_neutral_step("magnitude", "HF")
    position_hf = result.largest_neutral_step("position", "HF")
    assert magnitude_hf >= position_hf
    # Every curve starts at normalized accuracy 1 at step 1.
    for method in ("magnitude", "position"):
        for group in ("LF", "MF", "HF"):
            first = result.entries_for(method, group)[0]
            assert first.step == 1.0
            assert first.normalized_accuracy >= 0.99
