"""Compute-dtype policy for the neural-network stack.

Every layer, loss, optimizer and the trainer agree on one floating-point
compute dtype instead of hard-casting to float64 at each boundary.  Two
dtypes are supported:

* ``float32`` — the fast path; default for models built through
  :func:`repro.nn.models.build_model` and for the experiment configs.
* ``float64`` — the reference/parity mode; default for layers constructed
  directly (so numerical gradient checks and the pre-existing float64
  behaviour are preserved bit for bit).

The policy is threaded through constructors (``dtype=`` on layers, model
builders and :class:`~repro.nn.trainer.Trainer`); activations, pooling and
other stateless layers simply preserve whatever floating dtype flows in.
"""

from __future__ import annotations

import numpy as np

#: Fast compute dtype used by the model builders and experiment configs.
DEFAULT_DTYPE = np.dtype(np.float32)

#: Reference dtype: the historical behaviour of the stack, kept for parity
#: testing and for direct layer construction.
REFERENCE_DTYPE = np.dtype(np.float64)

_SUPPORTED = (np.dtype(np.float32), np.dtype(np.float64))


def resolve_dtype(dtype, default=REFERENCE_DTYPE) -> np.dtype:
    """Normalise a user-facing dtype spec to a supported numpy dtype.

    ``None`` resolves to ``default``.  Accepts strings (``"float32"``),
    numpy types and dtypes; anything but float32/float64 is rejected.
    """
    if dtype is None:
        dtype = default
    dtype = np.dtype(dtype)
    if dtype not in _SUPPORTED:
        raise ValueError(
            f"unsupported compute dtype {dtype}; use float32 or float64"
        )
    return dtype


def as_float(array) -> np.ndarray:
    """View ``array`` as a float ndarray without changing float dtypes.

    Float32/float64 inputs pass through untouched (no copy, no cast);
    anything else (ints, bools, lists) is promoted to the reference
    float64, matching the stack's historical behaviour.
    """
    array = np.asarray(array)
    if array.dtype in _SUPPORTED:
        return array
    return array.astype(REFERENCE_DTYPE)
