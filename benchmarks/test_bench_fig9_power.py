"""Fig. 9 paper-shape check: normalized data-offloading power of the candidates.

Paper reference: DeepN-JPEG consumes only ~30% of the original dataset's
offloading power, roughly 2x better than RM-HF3 and 3x better than SAME-Q4.
"""

from repro.experiments import build_experiment, run_experiment
from repro.experiments.design_flow import derive_design_config


def test_fig9_power_breakdown(bench_config, bench_anchors):
    deepn_config = derive_design_config(bench_config, anchors=bench_anchors)
    result = run_experiment(
        build_experiment("fig9"), bench_config,
        deepn_config=deepn_config,
    )
    print("\n" + result.format_table())

    power = {entry.method: entry.normalized_power for entry in result.entries}
    original = power["Original"]
    deepn = power["DeepN-JPEG"]
    rmhf = power["RM-HF3"]
    sameq = power["SAME-Q4"]
    # Normalisation anchor.
    assert original == 1.0
    # Ordering matches the paper: DeepN-JPEG uses the least offloading power,
    # RM-HF3 barely improves on the original, SAME-Q4 sits in between.
    assert deepn < sameq < rmhf <= 1.0
    # DeepN-JPEG saves a large fraction of the offloading power.
    assert deepn < 0.75
