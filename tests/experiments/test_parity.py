"""Bit-identical parity of the declarative experiment API.

Every figure is compared against the committed golden fixtures under
``tests/experiments/golden/`` — generated by the pre-redesign
implementations (see :mod:`tests.experiments.goldens`) — through
``run_experiment(build_experiment(name), ...)``, the entry point
``python -m repro run`` uses, under ``workers=1`` and ``workers=4``,
cold and warm store, and without a store.  Everything must match to the
last bit/character of the canonical JSON payload.

The goldens encode floating-point results of NumPy training runs; a
different BLAS/CPU generation can legitimately produce different last
bits.  Regenerate on such a machine with::

    PYTHONPATH=src python -m tests.experiments.goldens --regen
"""

import pytest

from repro.experiments.store import ArtifactStore
from tests.experiments.goldens import CASES, MICRO, canonical, load_golden

FIGURES = sorted(CASES)


def _check(name: str, result) -> None:
    _, serialize = CASES[name]
    assert canonical(serialize(result)) == canonical(load_golden(name)), (
        f"{name} diverged from the pre-redesign golden result"
    )


def _check_cold_then_warm(name: str, config, root: str) -> None:
    runner, _ = CASES[name]
    store = ArtifactStore(root)
    _check(name, runner(config, store=store))
    assert store.misses > 0  # the cold run actually computed cells
    # Warm replay from the same store: bit-identical again.
    _check(name, runner(config, store=store))


@pytest.mark.parametrize("name", FIGURES)
def test_shim_matches_pre_redesign_golden_serial(name, tmp_path):
    """workers=1, cold then warm store."""
    _check_cold_then_warm(name, MICRO, str(tmp_path / "store"))


@pytest.mark.parametrize("name", FIGURES)
def test_registry_matches_pre_redesign_golden_parallel(name, tmp_path):
    """workers=4, cold then warm store."""
    _check_cold_then_warm(
        name, MICRO.with_overrides(workers=4), str(tmp_path / "store")
    )


@pytest.mark.parametrize("name", FIGURES)
def test_shim_matches_golden_without_store(name):
    """The plain store-less path stays bit-identical too."""
    runner, _ = CASES[name]
    _check(name, runner(MICRO))
