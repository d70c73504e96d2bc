"""Weight initialisation schemes."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.dtype import resolve_dtype

#: Process-lifetime entropy source of :func:`fallback_rng`.  An
#: unseeded SeedSequence draws OS entropy once, at import; every
#: convenience generator is a distinct child spawned from it.
_CONVENIENCE_SEEDS = np.random.SeedSequence()


def fallback_rng(
    rng: Optional[np.random.Generator] = None,
) -> np.random.Generator:
    """``rng`` itself, or a fresh generator for rng-less construction.

    Layer constructors accept ``rng=None`` as an ad-hoc convenience —
    every experiment path threads a generator seeded via
    ``SeedSequence``.  The fallback must still obey the worker-seeding
    invariant (rule R3 in ``INVARIANTS.md``): rather than scattering
    unseeded ``default_rng()`` calls across the layer modules, every
    fallback generator is spawned from this module's one
    :class:`~numpy.random.SeedSequence` — distinct per call (two
    rng-less layers never share an init stream) and auditable in a
    single place.
    """
    if rng is not None:
        return rng
    return np.random.default_rng(_CONVENIENCE_SEEDS.spawn(1)[0])


def he_normal(
    shape: tuple, fan_in: int, rng: np.random.Generator, dtype=None
) -> np.ndarray:
    """He/Kaiming normal initialisation, suited to ReLU networks.

    Samples are always drawn in float64 (so a given seed yields the same
    weights in every compute dtype) and cast to ``dtype`` afterwards.
    """
    if fan_in <= 0:
        raise ValueError("fan_in must be positive")
    scale = np.sqrt(2.0 / fan_in)
    values = rng.normal(0.0, scale, size=shape)
    return values.astype(resolve_dtype(dtype), copy=False)

