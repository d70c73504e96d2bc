"""Fig. 8 benchmark: generality of DeepN-JPEG across DNN architectures.

Paper reference: DeepN-JPEG maintains the original accuracy for GoogLeNet,
VGG-16, ResNet-34 and ResNet-50 while offering a much higher compression
rate than the QF-scaled JPEG needed to reach similar sizes.

At benchmark (tiny) scale only two architecture families are trained to
keep the wall-clock time reasonable; the full sweep is produced by
``examples/reproduce_paper.py``.
"""

from conftest import run_once

from repro.experiments import build_experiment, run_experiment
from repro.experiments.design_flow import derive_design_config

BENCH_MODELS = ("GoogLeNet", "ResNet-34")


def test_fig8_generality(benchmark, bench_config, bench_anchors):
    deepn_config = derive_design_config(bench_config, anchors=bench_anchors)
    result = run_once(
        benchmark,
        run_experiment,
        build_experiment("fig8"),
        bench_config,
        model_names=BENCH_MODELS,
        deepn_config=deepn_config,
        epochs=max(4, bench_config.epochs // 2),
    )
    print("\n" + result.format_table())

    models = list(dict.fromkeys(entry.model for entry in result.entries))
    assert models == list(BENCH_MODELS)
    accuracy = {
        (entry.model, entry.method): entry.accuracy for entry in result.entries
    }
    for model in BENCH_MODELS:
        # Every method was evaluated for every model.
        for method in ("Original", "DeepN-JPEG", "JPEG (QF=80)", "JPEG (QF=50)"):
            assert 0.0 <= accuracy[model, method] <= 1.0
    # DeepN-JPEG's compression rate exceeds both QF-scaled baselines.
    deepn_cr = [e.compression_ratio for e in result.entries
                if e.method == "DeepN-JPEG"][0]
    qf50_cr = [e.compression_ratio for e in result.entries
               if e.method == "JPEG (QF=50)"][0]
    assert deepn_cr > qf50_cr
