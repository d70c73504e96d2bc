"""High-level JPEG-style encoders and decoders.

Two codecs are provided:

* :class:`GrayscaleJpegCodec` — single-channel images, one quantization
  table, DC/AC luminance Huffman tables.
* :class:`ColorJpegCodec` — RGB images through the YCbCr path with
  optional 4:2:0 chroma subsampling, separate luma/chroma quantization
  and Huffman tables.

Both produce a real entropy-coded byte stream (so compressed sizes and
compression ratios are measured, not estimated), and both can decode it
back for accuracy-after-compression experiments.

Entropy coding runs on a NumPy-vectorized fast path: the whole block
stack is tokenized at once (:func:`repro.jpeg.rle.tokenize_blocks`),
Huffman codes are assigned with dense lookup arrays and the bit stream
is packed in one pass (:func:`repro.jpeg.bitstream.pack_bits`).
Decoding resolves Huffman codes against precomputed 16-bit windows and
a dense LUT instead of walking the stream bit by bit.  The scalar
reference implementations are kept as ``encode_scalar`` /
``decode_scalar`` and the tests assert both paths produce bit-identical
streams.  ``compress`` additionally skips the redundant entropy decode
of the round trip: the reconstruction is computed directly from the
quantized coefficients, which is exactly what decoding the (lossless)
entropy layer would return.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.jpeg import color as color_mod
from repro.jpeg.bitstream import (
    _CATEGORY_LUT,
    _CATEGORY_MASK_LUT,
    BitReader,
    BitWriter,
    decode_magnitude,
    pack_bits,
    peek_words,
)
from repro.jpeg.blocks import level_shift, partition_blocks_batch
from repro.jpeg.dct import _DCT8, _DCT8_T
from repro.jpeg.huffman import HuffmanTable
from repro.jpeg.metrics import CompressedSizeMixin, psnr
from repro.jpeg.quantization import QuantizationTable
from repro.jpeg.rle import (
    DC_SYMBOL_OFFSET,
    EOB_SYMBOL,
    MAX_ZERO_RUN,
    ZRL_SYMBOL,
    block_run_stats,
    block_symbol_histograms,
    encode_ac,
    encode_dc,
    tokenize_blocks,
)
from repro.jpeg.zigzag import INVERSE_ZIGZAG_ORDER, ZIGZAG_ORDER

# Fixed marker-segment overheads of a baseline JFIF file (bytes).
_SOI_BYTES = 2
_EOI_BYTES = 2
_APP0_BYTES = 18
_DQT_BYTES_PER_TABLE = 2 + 2 + 1 + 64
_SOS_FIXED_BYTES = 2 + 6
_SOS_PER_COMPONENT_BYTES = 2
_SOF_FIXED_BYTES = 2 + 8
_SOF_PER_COMPONENT_BYTES = 3
_DHT_FIXED_BYTES = 2 + 2


@dataclass(frozen=True)
class CompressionResult(CompressedSizeMixin):
    """Outcome of compressing (and decompressing) one image.

    Attributes
    ----------
    payload_bytes:
        Size of the entropy-coded scan data.
    header_bytes:
        Size of the marker segments (SOI, APP0, DQT, SOF, DHT, SOS, EOI).
    original_bytes:
        Size of the uncompressed image (one byte per sample).
    reconstructed:
        The decoded image, same shape as the input, float64 in [0, 255].

    ``total_bytes`` / ``compression_ratio`` / ``payload_compression_ratio``
    come from :class:`~repro.jpeg.metrics.CompressedSizeMixin`.
    """

    payload_bytes: int
    header_bytes: int
    original_bytes: int
    reconstructed: np.ndarray

    def psnr(self, original: np.ndarray) -> float:
        """PSNR of the reconstruction against ``original``."""
        return psnr(original, self.reconstructed)


@dataclass
class EncodedChannel:
    """Entropy-coded representation of one channel.

    When the stream was coded with per-image optimized Huffman tables,
    ``dc_huffman``/``ac_huffman`` carry those tables so the stream can be
    decoded without out-of-band knowledge (mirroring the DHT segments a
    real JPEG file would embed).  ``None`` means the standard tables.
    """

    data: bytes
    grid_shape: tuple
    channel_shape: tuple
    block_count: int
    dc_huffman: Optional[HuffmanTable] = None
    ac_huffman: Optional[HuffmanTable] = None


@dataclass
class EncodedImage:
    """Entropy-coded representation of one RGB image (three planes).

    ``planes`` holds the Y, Cb, Cr :class:`EncodedChannel` streams in
    that order (chroma planes at subsampled resolution when
    ``subsample_chroma`` is set); ``image_shape`` is the original
    ``(height, width)`` needed to invert the subsampling.
    """

    planes: "tuple[EncodedChannel, ...]"
    image_shape: tuple
    subsample_chroma: bool


class _ChannelCoder:
    """Encode / decode one channel with a given quantization table."""

    def __init__(
        self,
        table: QuantizationTable,
        dc_huffman: HuffmanTable,
        ac_huffman: HuffmanTable,
    ) -> None:
        self.table = table
        self.dc_huffman = dc_huffman
        self.ac_huffman = ac_huffman
        # Quantization steps in zig-zag order: quantizing after the
        # zig-zag gather is elementwise-identical to quantizing before
        # it, and saves a pass over the (N, 8, 8) stack.
        self._zz_steps = np.asarray(table.values, dtype=np.float64).reshape(
            64
        )[ZIGZAG_ORDER].copy()
        # One dense code table over the combined DC/AC symbol space of
        # the token stream (AC at 0–255, DC at 256–511), so a mixed
        # stream is coded with two fancy-indexing gathers.
        ac_codes, ac_lengths = ac_huffman.encode_arrays()
        dc_codes, dc_lengths = dc_huffman.encode_arrays()
        self._codes = np.concatenate([ac_codes, dc_codes])
        self._code_lengths = np.concatenate([ac_lengths, dc_lengths])
        # Constants of the fused fast path: the EOB code and a table of
        # 0–3 repetitions of the ZRL code (63 AC slots never need more).
        self._eob_code = int(ac_codes[EOB_SYMBOL])
        self._eob_length = int(ac_lengths[EOB_SYMBOL])
        zrl_code = int(ac_codes[ZRL_SYMBOL])
        zrl_length = int(ac_lengths[ZRL_SYMBOL])
        chain = [0]
        for _ in range(3):
            chain.append((chain[-1] << zrl_length) | zrl_code)
        self._zrl_chain_codes = np.asarray(chain, dtype=np.int64)
        self._zrl_chain_lengths = np.arange(4, dtype=np.int64) * zrl_length
        # Pre-fused lookup tables: entry values already carry the Huffman
        # code shifted left by the magnitude category, so coding a token
        # is one gather plus an OR with its magnitude bits.  A length of
        # 0 marks a symbol absent from the table.
        categories = np.arange(17, dtype=np.int64)
        self._dc_fused_codes = dc_codes[:17] << categories
        self._dc_fused_lengths = np.where(
            dc_lengths[:17] > 0, dc_lengths[:17] + categories, 0
        )
        ac_cat = np.arange(256, dtype=np.int64) & 0x0F
        self._ac_fused_codes = ac_codes << ac_cat
        self._ac_fused_lengths = np.where(
            ac_lengths > 0, ac_lengths + ac_cat, 0
        )
        # Static worst case of a fused AC entry ([ZRL]*3 + code +
        # magnitude bits); when it fits 63 bits no per-call overflow
        # check is needed.  Degenerate optimized tables missing ZRL/EOB
        # route through the general path.
        ac_worst = int(self._ac_fused_lengths.max())
        self._max_fused_bits = 3 * zrl_length + ac_worst
        self._fast_tables = zrl_length > 0 and self._eob_length > 0

    def quantized_batch(self, images: np.ndarray) -> tuple:
        """Zig-zag quantized blocks of an ``(N, H, W)`` stack.

        Inlined equivalent of partition → DCT → quantize → zig-zag, with
        the quantization performed after the zig-zag gather (elementwise,
        so bit-identical) and the 8x8 blocking done with views.  Returns
        ``(zz_blocks, grid_shape)``, where blocks of image ``i`` occupy
        the contiguous range ``[i * rows * cols, (i + 1) * rows * cols)``.
        The single shared quantization pipeline behind both the
        per-image and the batch paths.
        """
        blocks, (rows, cols) = partition_blocks_batch(level_shift(images))
        coefficients = (_DCT8 @ blocks) @ _DCT8_T
        flat = coefficients.reshape(images.shape[0] * rows * cols, 64)
        zz = np.rint(flat[:, ZIGZAG_ORDER] / self._zz_steps).astype(np.int64)
        return zz, (rows, cols)

    def quantized_blocks(self, channel: np.ndarray) -> tuple:
        """Return (zig-zag quantized blocks ``(N, 64)``, grid shape)."""
        return self.quantized_batch(
            np.asarray(channel, dtype=np.float64)[np.newaxis]
        )

    def reconstruct_batch(
        self, zz_blocks: np.ndarray, count: int, grid_shape: tuple,
        image_shape: tuple,
    ) -> np.ndarray:
        """``(N, H, W)`` images from a batch of zig-zag quantized blocks."""
        rows, cols = grid_shape
        height, width = image_shape
        dequantized = (zz_blocks * self._zz_steps)[:, INVERSE_ZIGZAG_ORDER]
        coefficients = dequantized.reshape(count, rows, cols, 8, 8)
        blocks = (_DCT8_T @ coefficients) @ _DCT8
        channels = (
            blocks.transpose(0, 1, 3, 2, 4).reshape(count, rows * 8, cols * 8)
        )
        pixels = channels[:, :height, :width] + 128.0
        return np.clip(pixels, 0.0, 255.0, out=pixels)

    def reconstruct(
        self, zz_blocks: np.ndarray, grid_shape: tuple, channel_shape: tuple
    ) -> np.ndarray:
        """Pixel channel from zig-zag quantized blocks (inverse pipeline)."""
        return self.reconstruct_batch(
            zz_blocks, 1, grid_shape, channel_shape
        )[0]

    # ------------------------------------------------------------------
    # Vectorized fast path
    # ------------------------------------------------------------------

    def entropy_code(
        self, zz_blocks: np.ndarray, reset_interval: int = 0
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Huffman-code a block stack into packable ``(values, lengths)``.

        Returns parallel ``(values, lengths)`` arrays ready for
        :func:`~repro.jpeg.bitstream.pack_bits`, plus the number of
        entries contributed by each block (for batch splitting).  The
        fused fast path emits ONE entry per coded unit — a DC entry
        fuses Huffman code and magnitude bits; a nonzero-AC entry
        additionally fuses its preceding ZRL escapes — which keeps the
        arrays small and avoids scattering per-token records.  Inputs
        that could overflow the 63-bit fusion budget (or need symbols a
        degenerate optimized table lacks) fall back to the general
        token-stream path; both produce identical bit streams.
        """
        zz = np.asarray(zz_blocks, dtype=np.int64)
        if zz.ndim != 2 or zz.shape[1] != 64:
            raise ValueError(
                f"expected blocks of shape (N, 64), got {zz.shape}"
            )
        n_blocks = zz.shape[0]
        if n_blocks == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy(), empty.copy()
        if not self._fast_tables or self._max_fused_bits > 63:
            return self._entropy_code_general(zz, reset_interval)

        diffs, ac, rows, cols, ac_values, zrl_counts, runs, has_eob = (
            block_run_stats(zz, reset_interval)
        )
        n_nonzero = rows.shape[0]

        # One fused magnitude pass over DC diffs and AC values.
        magnitudes = np.concatenate([diffs, ac_values])
        absolutes = np.abs(magnitudes)
        try:
            categories = _CATEGORY_LUT[absolutes]
        except IndexError:
            # Some magnitude needs more than 16 bits; no baseline table
            # can code it.  The general path raises the right error
            # (ValueError for an AC category > 15, KeyError for a DC
            # category the table lacks).
            return self._entropy_code_general(zz, reset_interval)
        # T.81 one's complement: negatives add (2**category - 1); the
        # arithmetic sign mask replaces a `np.where` over two branches.
        amplitude_bits = magnitudes + (
            (magnitudes >> 63) & _CATEGORY_MASK_LUT[absolutes]
        )

        dc_categories = categories[:n_blocks]
        dc_lengths = self._dc_fused_lengths[dc_categories]
        if not dc_lengths.all():
            return self._entropy_code_general(zz, reset_interval)
        dc_values = self._dc_fused_codes[dc_categories] | amplitude_bits[
            :n_blocks
        ]

        if n_nonzero:
            symbols = ((runs & MAX_ZERO_RUN) << 4) | categories[n_blocks:]
            coded_lengths = self._ac_fused_lengths[symbols]
            if not coded_lengths.all():
                return self._entropy_code_general(zz, reset_interval)
            # Fuse [ZRL]*k + code + magnitude into one entry.
            coded = self._ac_fused_codes[symbols] | amplitude_bits[n_blocks:]
            ac_values = (
                self._zrl_chain_codes[zrl_counts] << coded_lengths
            ) | coded
            ac_lengths = self._zrl_chain_lengths[zrl_counts] + coded_lengths
            nonzeros_per_block = np.bincount(rows, minlength=n_blocks)
        else:
            nonzeros_per_block = np.zeros(n_blocks, dtype=np.int64)

        entries_per_block = nonzeros_per_block + 1
        entries_per_block += has_eob
        block_ends = np.cumsum(entries_per_block)
        block_starts = block_ends - entries_per_block
        total = int(block_ends[-1])

        buffer = np.empty((2, total), dtype=np.int64)
        values = buffer[0]
        lengths = buffer[1]
        values[block_starts] = dc_values
        lengths[block_starts] = dc_lengths
        if n_nonzero:
            first_nonzero_of_block = np.empty(n_blocks, dtype=np.int64)
            first_nonzero_of_block[0] = 0
            np.cumsum(
                nonzeros_per_block[:-1], out=first_nonzero_of_block[1:]
            )
            offsets = block_starts + 1
            offsets -= first_nonzero_of_block
            positions = offsets[rows] + np.arange(n_nonzero)
            values[positions] = ac_values
            lengths[positions] = ac_lengths
        eob_positions = block_ends[has_eob] - 1
        values[eob_positions] = self._eob_code
        lengths[eob_positions] = self._eob_length
        return values, lengths, entries_per_block

    def _entropy_code_general(
        self, zz_blocks: np.ndarray, reset_interval: int = 0
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Token-stream reference: one packable entry per token."""
        stream = tokenize_blocks(zz_blocks, reset_interval=reset_interval)
        symbols = stream.symbols
        codes = self._codes[symbols]
        code_lengths = self._code_lengths[symbols]
        if symbols.shape[0] and not code_lengths.all():
            missing = int(symbols[code_lengths == 0][0])
            table = (
                self.dc_huffman if missing >= DC_SYMBOL_OFFSET
                else self.ac_huffman
            )
            raise KeyError(
                f"symbol {missing % DC_SYMBOL_OFFSET:#x} not present in "
                f"Huffman table '{table.name}'"
            )
        values = (codes << stream.amplitude_lengths) | stream.amplitudes
        lengths = code_lengths + stream.amplitude_lengths
        return values, lengths, stream.block_token_counts

    def encode_quantized(self, zz_blocks: np.ndarray) -> bytes:
        """Entropy-code pre-quantized zig-zag blocks into a byte stream."""
        values, lengths, _ = self.entropy_code(zz_blocks)
        return pack_bits(values, lengths)

    def encode(self, channel: np.ndarray) -> EncodedChannel:
        """Entropy-code one channel into bytes (vectorized fast path)."""
        zz_blocks, grid_shape = self.quantized_blocks(channel)
        return EncodedChannel(
            data=self.encode_quantized(zz_blocks),
            grid_shape=grid_shape,
            channel_shape=(channel.shape[0], channel.shape[1]),
            block_count=zz_blocks.shape[0],
        )

    def decode_to_zigzag(self, data: bytes, block_count: int) -> np.ndarray:
        """Entropy-decode a byte stream into ``(block_count, 64)`` blocks.

        Table-driven: Huffman codes are resolved in O(1) against 16-bit
        peek windows precomputed for every bit offset of the destuffed
        payload, walked one token at a time.  A malformed stream raises
        ``ValueError`` (an invalid code or an AC overrun) or ``EOFError``
        (the stream is cut short).
        """
        words, total_bits = peek_words(data)
        dc_symbols, dc_lengths = self.dc_huffman.decode_lut()
        ac_symbols, ac_lengths = self.ac_huffman.decode_lut()
        zz_blocks = np.zeros((block_count, 64), dtype=np.int32)
        try:
            self._decode_walk(
                # The walk indexes words with Python ints; a plain list
                # avoids boxing a NumPy scalar per peek.
                words.tolist(), total_bits, zz_blocks, block_count,
                dc_symbols, dc_lengths, ac_symbols, ac_lengths,
            )
        except IndexError:
            # A code decoded from padding bits of a truncated stream can
            # push the cursor past the peek-word list.
            raise EOFError("bit stream exhausted") from None
        return zz_blocks

    def _decode_walk(
        self, words, total_bits, zz_blocks, block_count,
        dc_symbols, dc_lengths, ac_symbols, ac_lengths,
    ) -> None:
        position = 0
        previous_dc = 0
        for block_index in range(block_count):
            if position > total_bits:
                raise EOFError("bit stream exhausted")
            # 32 bits starting at `position`: enough for the longest
            # Huffman code (16) plus its magnitude bits (16).
            peek = (words[position >> 3] >> (32 - (position & 7))) & 0xFFFFFFFF
            window = peek >> 16
            category = dc_symbols[window]
            if category < 0:
                if position + 16 > total_bits:
                    raise EOFError("bit stream exhausted")
                raise ValueError(
                    f"invalid Huffman code in table '{self.dc_huffman.name}'"
                )
            if category:
                length = dc_lengths[window]
                amplitude = (peek >> (32 - length - category)) & (
                    (1 << category) - 1
                )
                position += length + category
                if amplitude >> (category - 1):
                    previous_dc += amplitude
                else:
                    previous_dc += amplitude - (1 << category) + 1
            else:
                position += dc_lengths[window]
            zz_blocks[block_index, 0] = previous_dc
            index = 1
            while index < 64:
                peek = (
                    words[position >> 3] >> (32 - (position & 7))
                ) & 0xFFFFFFFF
                window = peek >> 16
                symbol = ac_symbols[window]
                length = ac_lengths[window]
                position += length
                if symbol == EOB_SYMBOL:
                    break
                if symbol == ZRL_SYMBOL:
                    index += MAX_ZERO_RUN + 1
                    continue
                if symbol < 0:
                    # A code window that spills past the payload means
                    # the stream was cut short, not that the table is bad.
                    if position - length + 16 > total_bits:
                        raise EOFError("bit stream exhausted")
                    raise ValueError(
                        "invalid Huffman code in table "
                        f"'{self.ac_huffman.name}'"
                    )
                index += symbol >> 4
                if index >= 64:
                    raise ValueError(
                        "AC stream overruns block during decode"
                    )
                category = symbol & 0x0F
                amplitude = (peek >> (32 - length - category)) & (
                    (1 << category) - 1
                )
                position += category
                if amplitude >> (category - 1):
                    zz_blocks[block_index, index] = amplitude
                else:
                    zz_blocks[block_index, index] = (
                        amplitude - (1 << category) + 1
                    )
                index += 1
        # A valid decode never reads past the payload: the final token
        # ends at or before the last real bit (the remainder of the
        # closing byte is padding).  Any overrun means truncation.
        if position > total_bits:
            raise EOFError("bit stream exhausted")

    def decode(self, encoded: EncodedChannel) -> np.ndarray:
        """Decode an :class:`EncodedChannel` back into a pixel channel."""
        zz_blocks = self.decode_to_zigzag(encoded.data, encoded.block_count)
        return self.reconstruct(
            zz_blocks, encoded.grid_shape, encoded.channel_shape
        )

    # ------------------------------------------------------------------
    # Scalar reference path (kept for parity testing)
    # ------------------------------------------------------------------

    def encode_scalar(self, channel: np.ndarray) -> EncodedChannel:
        """Reference encoder: one token at a time through a BitWriter."""
        zz_blocks, grid_shape = self.quantized_blocks(channel)
        writer = BitWriter()
        previous_dc = 0
        for block in zz_blocks:
            dc_token = encode_dc(int(block[0]), previous_dc)
            previous_dc = int(block[0])
            writer.write_code(self.dc_huffman.encode(dc_token.symbol))
            writer.write_bits(dc_token.amplitude_bits, dc_token.amplitude_length)
            for token in encode_ac(block[1:]):
                writer.write_code(self.ac_huffman.encode(token.symbol))
                writer.write_bits(token.amplitude_bits, token.amplitude_length)
        return EncodedChannel(
            data=writer.getvalue(),
            grid_shape=grid_shape,
            channel_shape=(channel.shape[0], channel.shape[1]),
            block_count=zz_blocks.shape[0],
        )

    def decode_scalar(self, encoded: EncodedChannel) -> np.ndarray:
        """Reference decoder: bit-at-a-time through a BitReader."""
        reader = BitReader(encoded.data)
        zz_blocks = np.zeros((encoded.block_count, 64), dtype=np.int32)
        previous_dc = 0
        for block_index in range(encoded.block_count):
            category = self.dc_huffman.decode_symbol(reader)
            bits = reader.read_bits(category)
            previous_dc += decode_magnitude(bits, category)
            zz_blocks[block_index, 0] = previous_dc
            position = 1
            while position < 64:
                symbol = self.ac_huffman.decode_symbol(reader)
                if symbol == EOB_SYMBOL:
                    break
                if symbol == ZRL_SYMBOL:
                    position += MAX_ZERO_RUN + 1
                    continue
                run = symbol >> 4
                category = symbol & 0x0F
                position += run
                if position >= 64:
                    raise ValueError("AC stream overruns block during decode")
                bits = reader.read_bits(category)
                zz_blocks[block_index, position] = decode_magnitude(
                    bits, category
                )
                position += 1
        return self.reconstruct(
            zz_blocks, encoded.grid_shape, encoded.channel_shape
        )


class GrayscaleJpegCodec:
    """Baseline-JPEG-style codec for single-channel images.

    Parameters
    ----------
    table:
        The quantization table used for every block; this is the object
        DeepN-JPEG replaces.
    optimize_huffman:
        If true, build per-image optimized Huffman tables from the symbol
        histogram (like ``jpeg_set_optimize`` in libjpeg); otherwise the
        Annex K standard tables are used.
    """

    def __init__(
        self, table: QuantizationTable, optimize_huffman: bool = False
    ) -> None:
        self.table = table
        self.optimize_huffman = bool(optimize_huffman)
        self._standard_dc = HuffmanTable.standard_dc_luminance()
        self._standard_ac = HuffmanTable.standard_ac_luminance()
        self._cached_coder = _ChannelCoder(
            table, self._standard_dc, self._standard_ac
        )
        self._standard_header = None

    def _standard_coder(self) -> _ChannelCoder:
        return self._cached_coder

    def _optimized_coder(self, zz_blocks: np.ndarray) -> _ChannelCoder:
        return _optimized_channel_coder(self.table, zz_blocks)

    def encode(self, image: np.ndarray) -> EncodedChannel:
        """Entropy-code a 2-D image; returns the encoded channel.

        With ``optimize_huffman`` the per-image tables ride along on the
        returned :class:`EncodedChannel` so :meth:`decode` can invert the
        stream without out-of-band state.
        """
        image = _require_grayscale(image)
        coder = self._standard_coder()
        zz_blocks, grid_shape = coder.quantized_blocks(image)
        if self.optimize_huffman:
            coder = self._optimized_coder(zz_blocks)
        return EncodedChannel(
            data=coder.encode_quantized(zz_blocks),
            grid_shape=grid_shape,
            channel_shape=(image.shape[0], image.shape[1]),
            block_count=zz_blocks.shape[0],
            dc_huffman=coder.dc_huffman if self.optimize_huffman else None,
            ac_huffman=coder.ac_huffman if self.optimize_huffman else None,
        )

    def decode(self, encoded: EncodedChannel) -> np.ndarray:
        """Decode an image previously produced by :meth:`encode`."""
        if encoded.dc_huffman is None and encoded.ac_huffman is None:
            return self._cached_coder.decode(encoded)
        dc_table = encoded.dc_huffman or self._standard_dc
        ac_table = encoded.ac_huffman or self._standard_ac
        return _ChannelCoder(self.table, dc_table, ac_table).decode(encoded)

    def encode_to_bytes(self, image: np.ndarray) -> bytes:
        """Encode one image into a self-contained byte container.

        The container embeds the quantization table (and, with
        ``optimize_huffman``, the per-image Huffman tables), so
        :func:`repro.jpeg.container.decode_image_bytes` inverts it with
        no out-of-band state.
        """
        from repro.jpeg.container import pack_grayscale_image

        return pack_grayscale_image(self.encode(image), self.table)

    def compress(self, image: np.ndarray) -> CompressionResult:
        """Round-trip one image and report sizes and the reconstruction.

        The reconstruction is computed directly from the quantized
        coefficients: the entropy layer is lossless, so decoding the
        just-encoded stream would yield exactly the same blocks (the
        tests assert this equivalence against :meth:`decode`).
        """
        image = _require_grayscale(image)
        coder = self._standard_coder()
        zz_blocks, grid_shape = coder.quantized_blocks(image)
        if self.optimize_huffman:
            coder = self._optimized_coder(zz_blocks)
            header = self.header_bytes(coder)
        else:
            header = self._cached_header_bytes()
        data = coder.encode_quantized(zz_blocks)
        reconstructed = coder.reconstruct(
            zz_blocks, grid_shape, (image.shape[0], image.shape[1])
        )
        return CompressionResult(
            payload_bytes=len(data),
            header_bytes=header,
            original_bytes=int(image.shape[0] * image.shape[1]),
            reconstructed=reconstructed,
        )

    def _cached_header_bytes(self) -> int:
        if self._standard_header is None:
            self._standard_header = self.header_bytes(self._standard_coder())
        return self._standard_header

    def compress_batch(self, images: np.ndarray) -> "list[CompressionResult]":
        """Round-trip a stack of same-shaped images ``(N, H, W)`` at once.

        One coder and one set of Huffman tables are shared across the
        whole batch; blocking, DCT, quantization, tokenization and
        Huffman code assignment each run as a single vectorized pass
        over every block of every image.  Per-image byte streams are
        identical to what :meth:`compress` produces image by image.
        With ``optimize_huffman`` (per-image tables by definition) this
        falls back to the per-image path.
        """
        images = np.asarray(images, dtype=np.float64)
        if images.ndim != 3:
            raise ValueError(
                f"expected an (N, H, W) image stack, got shape {images.shape}"
            )
        if self.optimize_huffman:
            return [self.compress(image) for image in images]
        count, height, width = images.shape
        coder = self._standard_coder()
        zz_blocks, grid_shape = coder.quantized_batch(images)
        blocks_per_image = grid_shape[0] * grid_shape[1]
        values, lengths, block_tokens = coder.entropy_code(
            zz_blocks, reset_interval=blocks_per_image
        )
        tokens_per_image = np.add.reduceat(
            block_tokens, np.arange(0, count * blocks_per_image,
                                    blocks_per_image),
        )
        boundaries = np.concatenate(
            [[0], np.cumsum(tokens_per_image)]
        ).astype(np.int64)
        reconstructed = coder.reconstruct_batch(
            zz_blocks, count, grid_shape, (height, width)
        )
        header = self._cached_header_bytes()
        results = []
        for index in range(count):
            data = pack_bits(
                values[boundaries[index]:boundaries[index + 1]],
                lengths[boundaries[index]:boundaries[index + 1]],
            )
            results.append(
                CompressionResult(
                    payload_bytes=len(data),
                    header_bytes=header,
                    original_bytes=int(height * width),
                    reconstructed=reconstructed[index],
                )
            )
        return results

    def header_bytes(self, coder: "Optional[_ChannelCoder]" = None) -> int:
        """Marker-segment overhead of a single-component baseline file."""
        if coder is None:
            coder = self._standard_coder()
        dht = (
            2 * _DHT_FIXED_BYTES
            + coder.dc_huffman.header_cost_bytes()
            + coder.ac_huffman.header_cost_bytes()
        )
        return (
            _SOI_BYTES
            + _APP0_BYTES
            + _DQT_BYTES_PER_TABLE
            + _SOF_FIXED_BYTES
            + _SOF_PER_COMPONENT_BYTES
            + dht
            + _SOS_FIXED_BYTES
            + _SOS_PER_COMPONENT_BYTES
            + _EOI_BYTES
        )


class ColorJpegCodec:
    """Baseline-JPEG-style codec for RGB images via the YCbCr path.

    Parameters
    ----------
    luma_table:
        Quantization table for the Y channel.
    chroma_table:
        Quantization table for Cb and Cr.  If omitted, the luma table is
        reused (DeepN-JPEG designs its table from luma statistics and the
        paper applies the framework per colour component).
    subsample_chroma:
        Apply 4:2:0 chroma subsampling before coding (the common default).
    """

    def __init__(
        self,
        luma_table: QuantizationTable,
        chroma_table: Optional[QuantizationTable] = None,
        subsample_chroma: bool = True,
        optimize_huffman: bool = False,
    ) -> None:
        self.luma_table = luma_table
        self.chroma_table = chroma_table if chroma_table is not None else luma_table
        self.subsample_chroma = bool(subsample_chroma)
        self.optimize_huffman = bool(optimize_huffman)
        self._dc_luma = HuffmanTable.standard_dc_luminance()
        self._ac_luma = HuffmanTable.standard_ac_luminance()
        self._dc_chroma = HuffmanTable.standard_dc_chrominance()
        self._ac_chroma = HuffmanTable.standard_ac_chrominance()
        # Standard-table coders shared by every compress call (Cb and Cr
        # use the same coder; coders are stateless across images).
        luma_coder = _ChannelCoder(self.luma_table, self._dc_luma, self._ac_luma)
        chroma_coder = _ChannelCoder(
            self.chroma_table, self._dc_chroma, self._ac_chroma
        )
        self._plane_coders = [luma_coder, chroma_coder, chroma_coder]
        self._standard_header = None

    def _cached_header_bytes(self) -> int:
        if self._standard_header is None:
            self._standard_header = self.header_bytes(self._plane_coders)
        return self._standard_header

    def _planes_of(self, image: np.ndarray) -> "list[np.ndarray]":
        """The Y/Cb/Cr coding planes of one RGB image (subsampled chroma)."""
        ycbcr = color_mod.rgb_to_ycbcr(image)
        planes = [ycbcr[..., 0]]
        if self.subsample_chroma:
            planes.append(color_mod.subsample_420(ycbcr[..., 1]))
            planes.append(color_mod.subsample_420(ycbcr[..., 2]))
        else:
            planes.append(ycbcr[..., 1])
            planes.append(ycbcr[..., 2])
        return planes

    def _rgb_from_planes(
        self, decoded_planes: "list[np.ndarray]", image_shape: tuple
    ) -> np.ndarray:
        """Invert :meth:`_planes_of` on decoded pixel planes."""
        luma = decoded_planes[0]
        if self.subsample_chroma:
            cb = color_mod.upsample_420(decoded_planes[1], image_shape)
            cr = color_mod.upsample_420(decoded_planes[2], image_shape)
        else:
            cb, cr = decoded_planes[1], decoded_planes[2]
        return color_mod.ycbcr_to_rgb(np.stack([luma, cb, cr], axis=-1))

    def encode(self, image: np.ndarray) -> EncodedImage:
        """Entropy-code one RGB image into three per-plane byte streams.

        With ``optimize_huffman`` each plane's per-image tables ride
        along on its :class:`EncodedChannel` so :meth:`decode` can invert
        the streams without out-of-band state.
        """
        image = _require_rgb(image)
        planes = self._planes_of(image)
        encoded_planes = []
        for plane, coder in zip(planes, self._plane_coders):
            zz_blocks, grid_shape = coder.quantized_blocks(plane)
            if self.optimize_huffman:
                coder = _optimized_channel_coder(coder.table, zz_blocks)
            encoded_planes.append(
                EncodedChannel(
                    data=coder.encode_quantized(zz_blocks),
                    grid_shape=grid_shape,
                    channel_shape=(plane.shape[0], plane.shape[1]),
                    block_count=zz_blocks.shape[0],
                    dc_huffman=(
                        coder.dc_huffman if self.optimize_huffman else None
                    ),
                    ac_huffman=(
                        coder.ac_huffman if self.optimize_huffman else None
                    ),
                )
            )
        return EncodedImage(
            planes=tuple(encoded_planes),
            image_shape=(image.shape[0], image.shape[1]),
            subsample_chroma=self.subsample_chroma,
        )

    def decode(self, encoded: EncodedImage) -> np.ndarray:
        """Decode an RGB image previously produced by :meth:`encode`."""
        if len(encoded.planes) != 3:
            raise ValueError(
                f"expected 3 encoded planes, got {len(encoded.planes)}"
            )
        if encoded.subsample_chroma != self.subsample_chroma:
            raise ValueError(
                "encoded image subsampling does not match this codec"
            )
        decoded_planes = []
        for plane, coder in zip(encoded.planes, self._plane_coders):
            if plane.dc_huffman is not None or plane.ac_huffman is not None:
                coder = _ChannelCoder(
                    coder.table,
                    plane.dc_huffman or coder.dc_huffman,
                    plane.ac_huffman or coder.ac_huffman,
                )
            decoded_planes.append(coder.decode(plane))
        return self._rgb_from_planes(decoded_planes, encoded.image_shape)

    def encode_to_bytes(self, image: np.ndarray) -> bytes:
        """Encode one RGB image into a self-contained byte container.

        See :meth:`GrayscaleJpegCodec.encode_to_bytes`; the color
        container embeds both quantization tables.
        """
        from repro.jpeg.container import pack_color_image

        return pack_color_image(
            self.encode(image), self.luma_table, self.chroma_table
        )

    def compress(self, image: np.ndarray) -> CompressionResult:
        """Round-trip one RGB image and report sizes and the reconstruction.

        Like :meth:`GrayscaleJpegCodec.compress`, each plane's
        reconstruction comes straight from its quantized coefficients
        (the entropy layer is lossless), so the stream is encoded but
        not redundantly decoded.
        """
        image = _require_rgb(image)
        height, width, _ = image.shape
        planes = self._planes_of(image)
        coders = []
        payload = 0
        decoded_planes = []
        for plane, coder in zip(planes, self._plane_coders):
            zz_blocks, grid_shape = coder.quantized_blocks(plane)
            if self.optimize_huffman:
                coder = _optimized_channel_coder(coder.table, zz_blocks)
            coders.append(coder)
            payload += len(coder.encode_quantized(zz_blocks))
            decoded_planes.append(
                coder.reconstruct(
                    zz_blocks, grid_shape, (plane.shape[0], plane.shape[1])
                )
            )
        reconstructed = self._rgb_from_planes(decoded_planes, (height, width))
        header = (
            self.header_bytes(coders) if self.optimize_huffman
            else self._cached_header_bytes()
        )
        return CompressionResult(
            payload_bytes=payload,
            header_bytes=header,
            original_bytes=int(height * width * 3),
            reconstructed=reconstructed,
        )

    def compress_batch(self, images: np.ndarray) -> "list[CompressionResult]":
        """Round-trip a stack of same-shaped RGB images ``(N, H, W, 3)``.

        Colour conversion, chroma subsampling and — per plane — blocking,
        DCT, quantization and entropy coding all run as single vectorized
        passes over the whole batch through the same shared
        :class:`_ChannelCoder` batch path the grayscale codec uses (the
        DC predictor resets at image boundaries, so per-image byte
        streams are identical to :meth:`compress`).  With
        ``optimize_huffman`` (per-image tables by definition) this falls
        back to the per-image path.
        """
        images = np.asarray(images, dtype=np.float64)
        if images.ndim != 4 or images.shape[-1] != 3:
            raise ValueError(
                f"expected an (N, H, W, 3) image stack, got {images.shape}"
            )
        if self.optimize_huffman:
            return [self.compress(image) for image in images]
        count, height, width, _ = images.shape
        ycbcr = color_mod.rgb_to_ycbcr(images)
        planes = [ycbcr[..., 0]]
        if self.subsample_chroma:
            planes.append(color_mod.batch_subsample_420(ycbcr[..., 1]))
            planes.append(color_mod.batch_subsample_420(ycbcr[..., 2]))
        else:
            planes.append(ycbcr[..., 1])
            planes.append(ycbcr[..., 2])
        payloads = np.zeros(count, dtype=np.int64)
        decoded_planes = []
        for plane_stack, coder in zip(planes, self._plane_coders):
            zz_blocks, grid_shape = coder.quantized_batch(plane_stack)
            blocks_per_image = grid_shape[0] * grid_shape[1]
            values, lengths, block_tokens = coder.entropy_code(
                zz_blocks, reset_interval=blocks_per_image
            )
            tokens_per_image = np.add.reduceat(
                block_tokens,
                np.arange(0, count * blocks_per_image, blocks_per_image),
            )
            boundaries = np.concatenate(
                [[0], np.cumsum(tokens_per_image)]
            ).astype(np.int64)
            for index in range(count):
                payloads[index] += len(
                    pack_bits(
                        values[boundaries[index]:boundaries[index + 1]],
                        lengths[boundaries[index]:boundaries[index + 1]],
                    )
                )
            decoded_planes.append(
                coder.reconstruct_batch(
                    zz_blocks, count, grid_shape, plane_stack.shape[1:]
                )
            )
        luma = decoded_planes[0]
        if self.subsample_chroma:
            cb = color_mod.batch_upsample_420(
                decoded_planes[1], (height, width)
            )
            cr = color_mod.batch_upsample_420(
                decoded_planes[2], (height, width)
            )
        else:
            cb, cr = decoded_planes[1], decoded_planes[2]
        reconstructed = color_mod.ycbcr_to_rgb(
            np.stack([luma, cb, cr], axis=-1)
        )
        header = self._cached_header_bytes()
        return [
            CompressionResult(
                payload_bytes=int(payloads[index]),
                header_bytes=header,
                original_bytes=int(height * width * 3),
                reconstructed=reconstructed[index],
            )
            for index in range(count)
        ]

    def header_bytes(self, coders: "list[_ChannelCoder]" = None) -> int:
        """Marker-segment overhead of a three-component baseline file."""
        if coders is None:
            if self.optimize_huffman:
                raise ValueError(
                    "optimized Huffman header size depends on the image; "
                    "pass coders"
                )
            coders = self._plane_coders
        unique_tables = {id(self.luma_table), id(self.chroma_table)}
        dht = 0
        seen = set()
        for coder in coders:
            for table in (coder.dc_huffman, coder.ac_huffman):
                if id(table) in seen:
                    continue
                seen.add(id(table))
                dht += _DHT_FIXED_BYTES + table.header_cost_bytes()
        return (
            _SOI_BYTES
            + _APP0_BYTES
            + len(unique_tables) * _DQT_BYTES_PER_TABLE
            + _SOF_FIXED_BYTES
            + 3 * _SOF_PER_COMPONENT_BYTES
            + dht
            + _SOS_FIXED_BYTES
            + 3 * _SOS_PER_COMPONENT_BYTES
            + _EOI_BYTES
        )


def _optimized_channel_coder(
    table: QuantizationTable, zz_blocks: np.ndarray
) -> _ChannelCoder:
    """Per-image optimized coder built from the stream's symbol histograms."""
    dc_counts, ac_counts = block_symbol_histograms(zz_blocks)
    return _ChannelCoder(
        table,
        HuffmanTable.from_frequencies(dc_counts, "dc-optimized"),
        HuffmanTable.from_frequencies(ac_counts, "ac-optimized"),
    )


def _require_grayscale(image: np.ndarray) -> np.ndarray:
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ValueError(
            f"expected a 2-D grayscale image, got shape {image.shape}"
        )
    return image


def _require_rgb(image: np.ndarray) -> np.ndarray:
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 3 or image.shape[-1] != 3:
        raise ValueError(
            f"expected an (H, W, 3) RGB image, got shape {image.shape}"
        )
    return image
