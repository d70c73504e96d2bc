"""Fig. 6 paper-shape check: LF slope k3 vs compression rate and accuracy.

Paper reference: a smaller k3 gives a better compression rate at a slight
accuracy cost; the paper selects k3 = 3 to maximise compression while
keeping the original accuracy.
"""

from repro.experiments import build_experiment, run_experiment


def test_fig6_k3_sweep(bench_config, bench_anchors):
    result = run_experiment(
        build_experiment("fig6"), bench_config,
        anchors=bench_anchors,
    )
    print("\n" + result.format_table())
    print(f"\nSelected k3 = {result.best_k3():g}")

    compression_by_k3 = {
        entry.k3: entry.compression_ratio for entry in result.entries
    }
    # Smaller k3 -> larger LF steps -> at least as good a compression rate.
    assert compression_by_k3[1.0] >= compression_by_k3[5.0]
    # Every configuration compresses better than the QF=100 reference.
    assert all(entry.compression_ratio > 1.0 for entry in result.entries)
    # The selected k3 is one of the swept values.
    assert result.best_k3() in compression_by_k3
