"""JPEG codec substrate.

A complete, self-contained JPEG-style grayscale still image codec
implemented with numpy.  It mirrors the structure of the baseline
sequential JPEG pipeline (ITU-T T.81): level shift, 8x8 block
partitioning and forward DCT (one transform each way for whole image
stacks, :mod:`repro.jpeg.blocks`), scalar quantization against a
64-entry table, zig-zag reordering, DPCM coding of DC terms, run-length
coding of AC terms, and Huffman entropy coding with the Annex K
luminance tables into an actual byte stream.  The codec is the
substrate on which the DeepN-JPEG quantization tables
(:mod:`repro.core`) are evaluated: it reports real compressed sizes, so
compression ratios are measured rather than estimated.

Public entry points
-------------------
:class:`~repro.jpeg.codec.GrayscaleJpegCodec`
    Encode/decode single-channel images.
:func:`~repro.jpeg.container.decode_image_bytes`
    Decode a self-contained byte container (table + bitstream).
:class:`~repro.jpeg.quantization.QuantizationTable`
    A 64-entry table with quality-factor scaling, the object DeepN-JPEG
    redesigns.
"""

from repro.jpeg.codec import (
    CompressionResult,
    EncodedChannel,
    GrayscaleJpegCodec,
)
from repro.jpeg.container import (
    ContainerError,
    decode_image_bytes,
    pack_grayscale_image,
    unpack_container,
)
from repro.jpeg.metrics import mse, psnr
from repro.jpeg.quantization import (
    STANDARD_LUMINANCE_TABLE,
    QuantizationTable,
    scale_table_for_quality,
)
from repro.jpeg.zigzag import ZIGZAG_ORDER

__all__ = [
    "CompressionResult",
    "ContainerError",
    "EncodedChannel",
    "GrayscaleJpegCodec",
    "QuantizationTable",
    "decode_image_bytes",
    "pack_grayscale_image",
    "unpack_container",
    "STANDARD_LUMINANCE_TABLE",
    "ZIGZAG_ORDER",
    "mse",
    "psnr",
    "scale_table_for_quality",
]
