"""Fig. 7 benchmark: compression rate and accuracy of all candidates.

Paper reference: RM-HF gains little compression (1.1-1.3x) and loses
accuracy; SAME-Q reaches 1.5-2x with increasing accuracy loss; DeepN-JPEG
delivers the best compression (~3.5x on ImageNet) while keeping the
original accuracy.
"""

from conftest import run_once

from repro.experiments import build_experiment, run_experiment
from repro.experiments.design_flow import derive_design_config


def test_fig7_methods_comparison(benchmark, bench_config, bench_anchors):
    deepn_config = derive_design_config(bench_config, anchors=bench_anchors)
    result = run_once(
        benchmark, run_experiment, build_experiment("fig7"), bench_config,
        deepn_config=deepn_config,
    )
    print("\n" + result.format_table())

    entries = {entry.method: entry for entry in result.entries}
    original = result.entries[0]
    deepn = entries["DeepN-JPEG"]
    # The Original dataset is the CR = 1 reference.
    assert original.compression_ratio == 1.0
    # DeepN-JPEG compresses best among all candidates.
    assert deepn.compression_ratio == max(
        entry.compression_ratio for entry in result.entries
    )
    # RM-HF buys very little compression (the paper reports 1.1-1.3x).
    for entry in result.entries:
        if entry.method.startswith("RM-HF"):
            assert entry.compression_ratio < 1.4
    # SAME-Q sits between RM-HF and DeepN-JPEG.
    for entry in result.entries:
        if entry.method.startswith("SAME-Q"):
            assert 1.0 < entry.compression_ratio < deepn.compression_ratio
