"""Experiment harness: one declarative experiment per figure of the paper.

Every experiment is declared on :mod:`repro.experiments.api` — named
grid axes, a pure cell function, an optional heavy state builder and
an assemble step — while the framework uniformly supplies grid
enumeration, content-addressed caching/resume, ``workers=`` sharding
and deterministic ordering.  Experiments register by name and run one way:
``run_experiment(build_experiment(name), config, store=..., **params)``
from :mod:`repro.experiments.api`, which the ``python -m repro`` CLI
and ``examples/reproduce_paper.py`` call too.

Experiment index (the README's experiment sections describe each run):

========  ===========================================================
Figure    Module
========  ===========================================================
Fig. 2    :mod:`repro.experiments.fig2_motivation`
Fig. 3    :mod:`repro.experiments.fig3_feature_removal`
Fig. 5    :mod:`repro.experiments.fig5_band_sensitivity`
Fig. 6    :mod:`repro.experiments.fig6_k3_sweep`
Fig. 7    :mod:`repro.experiments.fig7_methods`
Fig. 8    :mod:`repro.experiments.fig8_generality`
Fig. 9    :mod:`repro.experiments.fig9_power`
========  ===========================================================
"""

from repro.experiments.api import (
    Axis,
    Experiment,
    TableResult,
    build_experiment,
    experiment_names,
    register_experiment,
    run_experiment,
    unregister_experiment,
)
from repro.experiments.common import (
    ExperimentConfig,
    TrainedClassifier,
    format_table,
    make_splits,
    train_classifier,
)
from repro.experiments.store import ArtifactStore, SweepCache

# Importing the figure modules registers the built-in experiments.
from repro.experiments import (  # noqa: E402  (registration imports)
    fig2_motivation,
    fig3_feature_removal,
    fig5_band_sensitivity,
    fig6_k3_sweep,
    fig7_methods,
    fig8_generality,
    fig9_power,
)

__all__ = [
    "ArtifactStore",
    "Axis",
    "Experiment",
    "ExperimentConfig",
    "SweepCache",
    "TableResult",
    "TrainedClassifier",
    "build_experiment",
    "experiment_names",
    "fig2_motivation",
    "fig3_feature_removal",
    "fig5_band_sensitivity",
    "fig6_k3_sweep",
    "fig7_methods",
    "fig8_generality",
    "fig9_power",
    "format_table",
    "make_splits",
    "register_experiment",
    "run_experiment",
    "train_classifier",
    "unregister_experiment",
]
