"""Golden parity fixtures for the declarative experiment API.

``CASES`` maps every figure to a runner (calling
``run_experiment(build_experiment(name), config, ...)``, the entry point
``python -m repro run`` uses, with fixed micro-scale parameters) and a
serializer turning its result object into a canonical JSON payload.  The
committed fixtures under ``tests/experiments/golden/`` were generated
*before* the experiment layer was redesigned around
:mod:`repro.experiments.api`, so comparing against them asserts that the
declarative rewrite is bit-identical to the pre-redesign results.

Regenerate (e.g. on a machine with a different BLAS) with::

    PYTHONPATH=src python -m tests.experiments.goldens --regen
"""

from __future__ import annotations

import argparse
import json
import os
from dataclasses import asdict

from repro.experiments import ExperimentConfig, build_experiment, run_experiment
from repro.experiments.design_flow import derive_design_config

#: Smallest configuration that still exercises every code path (the same
#: scale the other experiment tests and the CLI's ``--scale micro`` use).
MICRO = ExperimentConfig.micro()
#: Fixed anchors so the fig6/7/8 cases need no embedded Fig. 5 sweep.
FIXED_ANCHORS = {"q1": 60.0, "q2": 20.0, "q_min": 5.0}

#: Directory holding the committed fixture files.
GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

#: The experiment-specific parameters every parity run uses, keyed by
#: figure name (fig7 and fig8 also get the fixed design of
#: :func:`_fig7_design`).
CASE_PARAMS = {
    "fig2": {"quality_factors": (100, 20)},
    "fig3": {"removed_components": (0, 6)},
    "fig5": {"step_sweeps": {"LF": (1, 5), "MF": (1, 40), "HF": (1, 80)}},
    "fig6": {"k3_values": (1.0, 3.0), "anchors": FIXED_ANCHORS},
    "fig7": {"rmhf_components": (3,), "sameq_steps": (8,)},
    "fig8": {"model_names": ("AlexNet",), "epochs": 1},
    "fig9": {},
}


def _fig7_design():
    return derive_design_config(MICRO, anchors=FIXED_ANCHORS)


def run_fig2(config, store=None):
    return run_experiment(
        build_experiment("fig2"), config, store=store,
        **CASE_PARAMS["fig2"],
    )


def run_fig3(config, store=None):
    return run_experiment(
        build_experiment("fig3"), config, store=store,
        **CASE_PARAMS["fig3"],
    )


def run_fig5(config, store=None):
    return run_experiment(
        build_experiment("fig5"), config, store=store,
        **CASE_PARAMS["fig5"],
    )


def run_fig6(config, store=None):
    return run_experiment(
        build_experiment("fig6"), config, store=store,
        **CASE_PARAMS["fig6"],
    )


def run_fig7(config, store=None):
    return run_experiment(
        build_experiment("fig7"), config, store=store, deepn_config=_fig7_design(),
        **CASE_PARAMS["fig7"],
    )


def run_fig8(config, store=None):
    return run_experiment(
        build_experiment("fig8"), config, store=store, deepn_config=_fig7_design(),
        **CASE_PARAMS["fig8"],
    )


def run_fig9(config, store=None):
    return run_experiment(
        build_experiment("fig9"), config, store=store,
        **CASE_PARAMS["fig9"],
    )


def serialize_fig2(result):
    return {"entries": [asdict(entry) for entry in result.entries]}


def serialize_fig3(result):
    return {
        "entries": [asdict(entry) for entry in result.entries],
        "high_frequency_classes": list(result.high_frequency_classes),
    }


def serialize_fig5(result):
    return {
        "entries": [asdict(entry) for entry in result.entries],
        "baseline_accuracy": result.baseline_accuracy,
        "anchors": result.derived_anchors(),
    }


def serialize_fig6(result):
    return {
        "entries": [asdict(entry) for entry in result.entries],
        "baseline_accuracy": result.baseline_accuracy,
    }


def serialize_fig7(result):
    return {"entries": [asdict(entry) for entry in result.entries]}


def serialize_fig8(result):
    return {"entries": [asdict(entry) for entry in result.entries]}


def serialize_fig9(result):
    return {
        "entries": [asdict(entry) for entry in result.entries],
        "link_name": result.link_name,
        "workload_name": result.workload_name,
    }


#: name -> (runner, serializer).  Runners accept (config, store=None).
CASES = {
    "fig2": (run_fig2, serialize_fig2),
    "fig3": (run_fig3, serialize_fig3),
    "fig5": (run_fig5, serialize_fig5),
    "fig6": (run_fig6, serialize_fig6),
    "fig7": (run_fig7, serialize_fig7),
    "fig8": (run_fig8, serialize_fig8),
    "fig9": (run_fig9, serialize_fig9),
}


def canonical(payload) -> str:
    """Canonical JSON used for exact payload comparison.

    Non-finite floats are allowed (Fig. 3's PSNR is infinite for the
    zero-removal cell) — they serialize to stable ``Infinity``/``NaN``
    tokens, so comparing canonical strings stays exact.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def golden_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{name}.json")


def load_golden(name: str):
    with open(golden_path(name), "r", encoding="utf-8") as handle:
        return json.load(handle)


def regenerate() -> None:
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name, (runner, serialize) in CASES.items():
        payload = serialize(runner(MICRO))
        # Round-trip through JSON so the committed fixture is exactly
        # what a load-and-compare sees (tuples become lists, etc.).
        payload = json.loads(canonical(payload))
        with open(golden_path(name), "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True, indent=1)
            handle.write("\n")
        print(f"wrote {golden_path(name)}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--regen", action="store_true", help="rewrite the fixture files"
    )
    arguments = parser.parse_args()
    if arguments.regen:
        regenerate()
    else:
        parser.error("nothing to do (pass --regen)")


if __name__ == "__main__":
    main()
