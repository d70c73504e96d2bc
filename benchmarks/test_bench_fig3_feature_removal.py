"""Fig. 3 benchmark: removing high-frequency components flips predictions.

Paper reference: zeroing the six highest-frequency DCT components of the
"junco" image leaves it visually indistinguishable (high PSNR) but changes
the DNN prediction to "robin".
"""

from conftest import run_once

from repro.experiments import build_experiment, run_experiment


def test_fig3_feature_removal(benchmark, bench_config):
    result = run_once(
        benchmark, run_experiment, build_experiment("fig3"), bench_config
    )
    print("\n" + result.format_table())

    baseline = result.entries[0]
    removed_six = next(
        entry for entry in result.entries if entry.removed_components == 6
    )
    # The degraded images stay visually close to the originals...
    assert removed_six.mean_psnr > 35.0
    # ...but the classes whose identity lives in high frequencies lose
    # accuracy, and some predictions flip — the junco-to-robin effect.
    assert (
        removed_six.high_frequency_class_accuracy
        <= baseline.high_frequency_class_accuracy
    )
    assert removed_six.accuracy <= baseline.accuracy
