"""The unified codec abstraction: protocol, registry, shared batch path.

Every compression surface of the reproduction — the raw JPEG codecs
(:class:`~repro.jpeg.codec.GrayscaleJpegCodec`,
:class:`~repro.jpeg.codec.ColorJpegCodec`), the paper's baselines
(:class:`~repro.core.baselines.JpegCompressor`,
:class:`~repro.core.baselines.SameQCompressor`,
:class:`~repro.core.baselines.RemoveHighFrequencyCompressor`) and the
proposed method (:class:`~repro.core.pipeline.DeepNJpeg`) — implements
one structural :class:`Codec` protocol: ``encode`` / ``decode`` /
``compress`` / ``compress_batch`` / ``header_bytes`` plus ``spec()``, a
JSON-able self-description that the string-keyed registry
(:func:`register_codec` / :func:`build_codec` /
:func:`build_codec_from_spec`) can turn back into an equivalent codec.
Specs double as content-addressable identities: the experiment artifact
store (:mod:`repro.experiments.store`) keys cached grid cells on them.

The module also owns the single shared dataset path that the former
``baselines._codec_for_stack`` / ``baselines._iter_compressed`` /
per-call chunk loops duplicated: :func:`codec_for_stack` dispatches a
stack's modality to the right JPEG codec, and
:func:`iter_compressed_stack` streams per-image results through one
memory-bounded chunked loop.
"""

from __future__ import annotations

from typing import Callable, Optional, Protocol, runtime_checkable

import numpy as np

from repro.jpeg.codec import (
    ColorJpegCodec,
    CompressionResult,
    EncodedImage,
    GrayscaleJpegCodec,
)
from repro.jpeg.quantization import QuantizationTable
from repro.runtime.executor import chunk_bounds


@runtime_checkable
class Codec(Protocol):
    """Structural protocol every compression surface implements.

    ``encode`` / ``decode`` translate between pixels and entropy-coded
    streams; ``compress`` / ``compress_batch`` round-trip images and
    report measured sizes; ``header_bytes`` accounts the marker
    overhead; ``spec()`` returns a JSON-able description with a
    ``"codec"`` key naming a registry entry, such that
    ``build_codec_from_spec(codec.spec())`` rebuilds an equivalent
    codec.
    """

    def spec(self) -> dict: ...

    def encode(self, image: np.ndarray): ...

    def decode(self, encoded) -> np.ndarray: ...

    def compress(self, image: np.ndarray) -> CompressionResult: ...

    def compress_batch(self, images: np.ndarray) -> "list[CompressionResult]": ...

    def header_bytes(self) -> int: ...


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

_REGISTRY: "dict[str, Callable]" = {}


def register_codec(
    name: str, factory: Callable, overwrite: bool = False
) -> Callable:
    """Register ``factory`` (a class or callable) under ``name``.

    Raises :class:`ValueError` on duplicate registration unless
    ``overwrite`` is set (useful for tests swapping in fakes).  Returns
    the factory so call sites can use it as a registration expression.
    """
    if not name or not isinstance(name, str):
        raise ValueError(f"codec name must be a non-empty string, got {name!r}")
    if name in _REGISTRY and not overwrite:
        raise ValueError(
            f"codec {name!r} is already registered; "
            "pass overwrite=True to replace it"
        )
    _REGISTRY[name] = factory
    return factory


def register_builtin_codec(name: str, factory: Callable) -> Callable:
    """Register a factory owned by this package.

    Builtins snapshot their factory at registration time so
    :func:`unregister_codec` can always restore the original, and they
    install unconditionally — importing the owning module reclaims the
    name even if a test registered a fake first.
    """
    _BUILTINS[name] = factory
    _REGISTRY[name] = factory
    return factory


def unregister_codec(name: str) -> None:
    """Remove a registry entry (primarily for test cleanup).

    Unregistering a *builtin* name restores its original factory
    instead of deleting it — builtin registration is a one-time import
    side effect, so a plain delete would leave ``build_codec`` broken
    for that name for the rest of the process.
    """
    _ensure_builtin_codecs()
    _REGISTRY.pop(name, None)
    original = _BUILTINS.get(name)
    if original is not None:
        _REGISTRY[name] = original


def codec_names() -> "list[str]":
    """Sorted names of every registered codec."""
    _ensure_builtin_codecs()
    return sorted(_REGISTRY)


def build_codec(name: str, **params) -> Codec:
    """Instantiate the codec registered under ``name`` with ``params``.

    Unknown names raise :class:`KeyError` listing the registered names.
    """
    _ensure_builtin_codecs()
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown codec {name!r}; registered codecs: "
            f"{', '.join(sorted(_REGISTRY))}"
        ) from None
    return factory(**params)


def build_codec_from_spec(spec: dict) -> Codec:
    """Rebuild a codec from a ``spec()`` payload (``{"codec": name, ...}``)."""
    if "codec" not in spec:
        raise ValueError(f"codec spec missing 'codec' key: {spec!r}")
    params = {key: value for key, value in spec.items() if key != "codec"}
    return build_codec(spec["codec"], **params)


#: Original factories of the names owned by this package, snapshotted
#: by :func:`register_builtin_codec` so they survive test-time
#: ``overwrite=True`` / :func:`unregister_codec` churn.
_BUILTINS: "dict[str, Callable]" = {}


def _ensure_builtin_codecs() -> None:
    """Import the modules whose import side effect registers the builtins.

    The baselines and the DeepN-JPEG pipeline register themselves at
    import time; importing lazily here keeps ``repro.core.codec``
    importable on its own without a circular import.
    """
    import repro.core.baselines  # noqa: F401  (registers jpeg/rm-hf/same-q)
    import repro.core.pipeline  # noqa: F401  (registers deepn-jpeg)


def _as_table(value) -> Optional[QuantizationTable]:
    """Coerce a factory argument into a table (JSON payload or table)."""
    if value is None or isinstance(value, QuantizationTable):
        return value
    return QuantizationTable.from_json(value)


def _build_grayscale_jpeg(table, optimize_huffman=False) -> GrayscaleJpegCodec:
    return GrayscaleJpegCodec(
        _as_table(table), optimize_huffman=optimize_huffman
    )


def _build_color_jpeg(
    luma_table,
    chroma_table=None,
    subsample_chroma=True,
    optimize_huffman=False,
) -> ColorJpegCodec:
    return ColorJpegCodec(
        _as_table(luma_table),
        _as_table(chroma_table),
        subsample_chroma=subsample_chroma,
        optimize_huffman=optimize_huffman,
    )


register_builtin_codec("jpeg-grayscale", _build_grayscale_jpeg)
register_builtin_codec("jpeg-color", _build_color_jpeg)


# ----------------------------------------------------------------------
# Shared dataset path (modality dispatch + chunked batches)
# ----------------------------------------------------------------------

#: Cap on images per vectorized batch in the dataset path.
_BATCH_CHUNK = 1024

#: Rough budget for per-chunk float64 intermediates (the batch pipeline
#: holds roughly ten image-sized float64 arrays at once: colour planes,
#: quantized blocks, code arrays, reconstructions).
_BATCH_CHUNK_BYTES = 256 * 2 ** 20


def batch_chunk_size(image_shape: tuple) -> int:
    """Images per chunk: capped by count and by intermediate bytes.

    Small images (the experiment datasets) get the full 1024-image
    chunk; large images shrink the chunk so the whole-batch float64
    intermediates stay near :data:`_BATCH_CHUNK_BYTES` instead of
    scaling with image area.
    """
    per_image = 10 * 8 * int(np.prod(image_shape))
    return int(max(1, min(_BATCH_CHUNK, _BATCH_CHUNK_BYTES // per_image)))


def codec_for_stack(
    images: np.ndarray,
    luma_table: QuantizationTable,
    chroma_table: Optional[QuantizationTable] = None,
    optimize_huffman: bool = False,
    strict: bool = True,
):
    """The shared JPEG codec implied by a stack's shape (validated).

    With ``strict`` (the default for raw arrays) a 3-trailing-dim
    ``(N, H, 3)`` stack is rejected as ambiguous; dataset callers pass
    ``strict=False`` because a :class:`~repro.data.dataset.Dataset`'s
    dimensionality is authoritative (``ndim == 4`` is colour), so even
    pathological 3-pixel-wide grayscale images dispatch correctly.
    """
    if images.ndim == 4:
        return ColorJpegCodec(
            luma_table,
            chroma_table if chroma_table is not None else luma_table,
            optimize_huffman=optimize_huffman,
        )
    if images.ndim == 3:
        if strict and images.shape[-1] == 3:
            raise ValueError(
                f"ambiguous shape {images.shape}: could be one (H, W, 3) "
                "RGB image or a stack of 3-pixel-wide grayscale images; "
                "pass images[np.newaxis] for a single RGB image, or use "
                "GrayscaleJpegCodec.compress_batch directly for 3-wide "
                "grayscale stacks"
            )
        return GrayscaleJpegCodec(
            luma_table, optimize_huffman=optimize_huffman
        )
    raise ValueError(
        "expected an (N, H, W) or (N, H, W, 3) image stack, got "
        f"shape {images.shape}"
    )


def codec_for_image(
    image: np.ndarray,
    luma_table: QuantizationTable,
    chroma_table: Optional[QuantizationTable] = None,
    optimize_huffman: bool = False,
):
    """The JPEG codec implied by ONE image's shape.

    The single-image counterpart of :func:`codec_for_stack`: the
    image's own rank decides the modality — ``(H, W)`` grayscale,
    ``(H, W, 3)`` RGB — so the stack dispatch runs non-strict (a
    3-pixel-wide 2-D grayscale image is not ambiguous here).
    """
    image = np.asarray(image)
    if image.ndim == 2 or (image.ndim == 3 and image.shape[-1] == 3):
        return codec_for_stack(
            image[np.newaxis], luma_table, chroma_table,
            optimize_huffman=optimize_huffman, strict=False,
        )
    raise ValueError(
        f"expected (H, W) or (H, W, 3) image, got shape {image.shape}"
    )


def decode_encoded(
    encoded,
    luma_table: QuantizationTable,
    chroma_table: Optional[QuantizationTable] = None,
) -> np.ndarray:
    """Decode an encoded stream with the given tables (modality-dispatched).

    The one decode helper behind every table-holding compression
    surface: an :class:`~repro.jpeg.codec.EncodedImage` decodes through
    the colour path (honouring the subsampling recorded on the stream),
    anything else through the grayscale path.
    """
    if isinstance(encoded, EncodedImage):
        return ColorJpegCodec(
            luma_table,
            chroma_table,
            subsample_chroma=encoded.subsample_chroma,
        ).decode(encoded)
    return GrayscaleJpegCodec(luma_table).decode(encoded)


def modality_header_bytes(
    luma_table: QuantizationTable,
    chroma_table: Optional[QuantizationTable] = None,
    color: bool = False,
) -> int:
    """Per-image marker overhead of the given tables for one modality."""
    if color:
        return ColorJpegCodec(luma_table, chroma_table).header_bytes()
    return GrayscaleJpegCodec(luma_table).header_bytes()


def iter_compressed_stack(images: np.ndarray, codec):
    """Yield per-image results for a stack, in memory-bounded chunks.

    The one dataset loop behind every batch entry point: the stack runs
    through ``codec.compress_batch`` in chunks of
    :func:`batch_chunk_size` images.  The shared-table batch path makes
    per-image byte streams independent of their neighbours (the DC
    predictor resets at image boundaries), so chunking is byte-identical
    to one whole-stack ``compress_batch``, and a consumer that
    aggregates incrementally never holds more than one chunk's
    reconstructions at once.  An empty stack yields nothing.
    """
    chunk = batch_chunk_size(images.shape[1:])
    for start, stop in chunk_bounds(len(images), chunk):
        yield from codec.compress_batch(images[start:stop])


def compress_stack(images: np.ndarray, codec) -> "list[CompressionResult]":
    """Per-image results of compressing a whole stack with one codec."""
    return list(iter_compressed_stack(images, codec))
