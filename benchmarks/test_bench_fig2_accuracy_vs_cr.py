"""Fig. 2 paper-shape check: accuracy vs JPEG compression ratio (CASE 1 / CASE 2).

Paper reference: both cases lose accuracy as the quality factor falls from
100 to 20 (CASE 1 by ~9%, CASE 2 by ~5% on ImageNet/AlexNet), and CASE 2
degrades less than CASE 1 at the highest compression.
"""

from repro.experiments import build_experiment, run_experiment


def test_fig2_accuracy_vs_compression(bench_config):
    result = run_experiment(build_experiment("fig2"), bench_config)
    print("\n" + result.format_table())

    entries = {entry.quality: entry for entry in result.entries}
    # The compression ratio rises monotonically as quality drops.
    assert entries[100].compression_ratio == 1.0
    assert entries[20].compression_ratio > entries[50].compression_ratio > 1.0
    # Aggressive HVS compression costs CASE-1 accuracy (the paper's ~9% drop).
    assert entries[20].case1_accuracy <= entries[100].case1_accuracy
    # The per-epoch curves (Fig. 2b) exist for every quality factor.
    for curve in result.epoch_curves().values():
        assert len(curve) == bench_config.epochs
