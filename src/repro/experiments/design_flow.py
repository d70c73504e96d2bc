"""The design-optimization flow of Section 4.

The paper derives the parameters of the piece-wise linear mapping from
measurements: the per-group sensitivity sweeps (Fig. 5) yield the anchor
steps ``Q1`` (HF), ``Q2`` (MF) and ``Qmin`` (LF knee), and the ``k3``
sweep (Fig. 6) picks the LF slope.  :func:`derive_design_config` runs the
Fig. 5 procedure (or reuses supplied anchors) and packages the result as a
:class:`~repro.core.config.DeepNJpegConfig`, which the Fig. 6/7/8/9
experiments then consume.
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import DeepNJpegConfig
from repro.core.pipeline import DeepNJpeg
from repro.core.table_design import TableDesignResult
from repro.experiments.api import build_experiment, run_experiment
from repro.experiments.common import ExperimentConfig, TrainedClassifier
from repro.experiments.store import ArtifactStore, SweepCache
from repro.runtime.executor import CACHE_MISS


#: Default guard band applied to the Fig. 5 anchors.  The sweeps quantize one
#: band group at a time; the combined table distorts every group at once, so
#: the per-group critical points systematically overestimate what the full
#: table tolerates — much more so on the synthetic FreqNet classes (which are
#: extremely robust to single-group distortion) than on ImageNet, where the
#: paper found small critical points (Q1=60, Q2=20).  Scaling the derived
#: anchors down keeps the combined table inside the accuracy-neutral regime.
DEFAULT_ANCHOR_SAFETY_FACTOR = 0.6
#: Ceiling on the derived LF floor (the paper uses Qmin=5); protects the DC
#: and other top-energy bands from the same single-group overestimate.
DEFAULT_Q_MIN_CEILING = 8.0


def derive_design_config(
    config: ExperimentConfig,
    anchors: dict = None,
    k3: float = 3.0,
    classifier: TrainedClassifier = None,
    safety_factor: float = DEFAULT_ANCHOR_SAFETY_FACTOR,
    q_min_ceiling: float = DEFAULT_Q_MIN_CEILING,
    store: Optional[ArtifactStore] = None,
) -> DeepNJpegConfig:
    """Build the dataset-specific DeepN-JPEG configuration.

    Parameters
    ----------
    config:
        Experiment scale (dataset size, epochs, seeds).  Its ``workers``
        knob also parallelises the embedded Fig. 5 sweeps: when anchors
        are not supplied, every (method, group, step) measurement behind
        the derived design runs as an independent pool task.
    anchors:
        Optional pre-computed ``{"q1", "q2", "q_min"}`` dictionary (e.g.
        the ``derived_anchors()`` of a previous Fig. 5 run); when
        omitted, the Fig. 5 sweeps are run here.
    k3:
        LF slope; the Fig. 6 experiment sweeps this value, the paper picks 3.
    classifier:
        Optional already-trained classifier to reuse for the Fig. 5 sweeps.
    safety_factor:
        Guard band applied to the derived ``q1``/``q2`` anchors (see
        :data:`DEFAULT_ANCHOR_SAFETY_FACTOR`).  Pass ``1.0`` to use the raw
        Fig. 5 critical points exactly as the paper does.
    q_min_ceiling:
        Upper bound on the derived LF floor.
    store:
        Optional :class:`~repro.experiments.store.ArtifactStore` the
        embedded Fig. 5 sweeps resume from (ignored when ``anchors``
        are supplied; bypassed when a ``classifier`` is, since its
        state is not derivable from the config).
    """
    if safety_factor <= 0 or safety_factor > 1:
        raise ValueError("safety_factor must be in (0, 1]")
    if anchors is None:
        fig5_result = run_experiment(
            build_experiment("fig5"), config, classifier=classifier,
            store=store,
        )
        anchors = fig5_result.derived_anchors()
    missing = {"q1", "q2", "q_min"} - set(anchors)
    if missing:
        raise ValueError(f"anchors missing keys: {sorted(missing)}")
    q_min = min(float(anchors["q_min"]), float(q_min_ceiling))
    q1 = max(float(anchors["q1"]) * safety_factor, q_min)
    q2 = max(float(anchors["q2"]) * safety_factor, q_min)
    q2 = min(q2, q1)
    return DeepNJpegConfig(
        q1=q1,
        q2=q2,
        q_min=q_min,
        k3=float(k3),
        sampling_interval=config.sampling_interval,
    )


def fitted_pipeline(
    config: ExperimentConfig,
    deepn_config: Optional[DeepNJpegConfig],
    dataset_provider,
    store: Optional[ArtifactStore] = None,
    fit_on: str = "train",
) -> DeepNJpeg:
    """A fitted :class:`~repro.core.pipeline.DeepNJpeg`, fit cached in the store.

    The fitted :class:`~repro.core.table_design.TableDesignResult` is a
    deterministic function of ``(config, deepn_config, fit_on)``, so it
    is itself a store artifact: on a warm store the pipeline is
    :meth:`~repro.core.pipeline.DeepNJpeg.from_design` of the cached
    design — no dataset generation and no Algorithm-1 analysis pass.  A
    cached design that does not decode is a miss and is re-fitted.
    ``dataset_provider`` is only called on a cold fit (pass a closure so
    a fully warm figure never materialises its datasets); ``fit_on``
    names which split the provider returns, keeping train- and
    test-fitted designs at distinct addresses.
    """
    if deepn_config is None:
        deepn_config = DeepNJpegConfig()
    cache = SweepCache(
        store, "deepn-fit", config,
        from_payload=TableDesignResult.from_json,
        to_payload=TableDesignResult.to_json,
    )
    cell = {
        "cell": "design",
        "deepn_config": deepn_config.to_json(),
        "fit_on": fit_on,
    }
    design = cache.lookup(cell)
    if design is not CACHE_MISS:
        return DeepNJpeg.from_design(deepn_config, design)
    pipeline = DeepNJpeg(deepn_config).fit(dataset_provider())
    cache.record(cell, pipeline.design)
    return pipeline
