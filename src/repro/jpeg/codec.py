"""The grayscale JPEG-style encoder and decoder.

:class:`GrayscaleJpegCodec` codes single-channel images with one
quantization table and the Annex K luminance Huffman tables, the only
Huffman tables this codec uses.  It produces a real entropy-coded byte
stream (so compressed sizes and compression ratios are measured, not
estimated) and decodes it back for accuracy-after-compression
experiments.

Entropy coding runs on a NumPy-vectorized fast path: the DPCM
differences and zero runs of the whole block stack are derived at once
(:func:`repro.jpeg.rle.block_run_stats`), Huffman codes are assigned
with dense fused lookup arrays and the bit stream is packed in one pass
(:func:`repro.jpeg.bitstream.pack_bits`).  Decoding walks the stream
one token at a time, never bit by bit: a DC code resolves against the
16-bit window at the cursor through the DC table's dense LUT, and an
AC token, magnitude included, through one lookup in a whole-token table
(:func:`_ac_token_table`, built once per process on the first decode).
Only the few AC tokens whose code and magnitude overflow the window
read their magnitude from a 32-bit peek; the walk collects every
nonzero AC ``(slot, value)`` pair and scatters them at once.  The
scalar references are
:func:`repro.reference.encode_scalar` and
:func:`repro.reference.decode_scalar`; the tests assert both paths
produce bit-identical streams.  ``compress`` additionally
skips the redundant entropy decode of the round trip: the
reconstruction is computed directly from the quantized coefficients,
which is exactly what decoding the (lossless) entropy layer would
return.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.jpeg.bitstream import (
    _CATEGORY_LUT,
    _CATEGORY_MASK_LUT,
    magnitude_category,
    pack_bits,
    peek_words,
)
from repro.jpeg.blocks import image_dct, image_idct
from repro.jpeg.huffman import MAX_CODE_LENGTH, HuffmanTable
from repro.jpeg.metrics import CompressedSizeMixin, psnr
from repro.jpeg.quantization import QuantizationTable
from repro.jpeg.rle import EOB_SYMBOL, MAX_ZERO_RUN, ZRL_SYMBOL, block_run_stats
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

#: Size categories the Annex K luminance tables code: DC differences up
#: to 11 (|diff| <= 2047) and AC values up to 10 (|value| <= 1023).  For
#: pixels in [0, 255] and steps in [1, 255], |DC| <= 1024 (differences
#: stay within 2040) and |AC| <= 1020, so every valid image fits.
_MAX_DC_CATEGORY = 11
_MAX_AC_CATEGORY = 10


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
    """Entropy-coded representation of one channel (Annex K tables)."""

    data: bytes
    grid_shape: tuple
    channel_shape: tuple
    block_count: int


def _fused_tables(dc_huffman: HuffmanTable, ac_huffman: HuffmanTable):
    """Encode-side constants of the fused coder for one pair of tables.

    Fused entries already carry the Huffman code shifted left by the
    magnitude category, so coding a token is one gather plus an OR with
    its magnitude bits.  Returns the fused DC and AC ``(codes, lengths)``
    arrays, the codes and lengths of 0–3 repetitions of the ZRL code (63
    AC slots never need more) and the EOB code and length.  With Annex K
    luminance the longest fused AC entry, three 11-bit ZRLs plus a 16-bit
    code and 10 magnitude bits, fits 63 bits.
    """
    dc_codes, dc_lengths = dc_huffman.encode_arrays()
    ac_codes, ac_lengths = ac_huffman.encode_arrays()
    dc_categories = np.arange(_MAX_DC_CATEGORY + 1, dtype=np.int64)
    ac_categories = np.arange(ac_codes.shape[0], dtype=np.int64) & 0x0F
    zrl_code = int(ac_codes[ZRL_SYMBOL])
    zrl_length = int(ac_lengths[ZRL_SYMBOL])
    chain = [0]
    for _ in range(3):
        chain.append((chain[-1] << zrl_length) | zrl_code)
    arrays = (
        dc_codes[dc_categories] << dc_categories,
        dc_lengths[dc_categories] + dc_categories,
        ac_codes << ac_categories,
        ac_lengths + ac_categories,
        np.asarray(chain, dtype=np.int64),
        np.arange(4, dtype=np.int64) * zrl_length,
    )
    for array in arrays:
        array.setflags(write=False)
    return arrays + (int(ac_codes[EOB_SYMBOL]), int(ac_lengths[EOB_SYMBOL]))


def _ac_token_table(ac_huffman: HuffmanTable) -> list:
    """Decode-side whole-token table of the AC coder over 16-bit windows.

    Entry ``w`` resolves the AC token at the head of the 16-bit window
    ``w`` as an ``(advance, skip, value)`` tuple.  When the token's code
    and magnitude bits both fit the window, ``advance`` is their total
    length, ``skip`` the zig-zag slots from the previous coefficient to
    this one (its zero run plus one) and ``value`` the coefficient
    itself, never 0.  Every other entry has ``value`` 0: ``(length,
    symbol, 0)`` for EOB, ZRL and a token whose magnitude runs past the
    window, and ``(0, -1, 0)`` where no code matches.
    Built with one list range-fill per (code, magnitude) pair, so the
    2**16 entries share a few hundred tuples; none may be modified.
    """
    codes, lengths = ac_huffman.encode_arrays()
    table = [(0, -1, 0)] * (1 << MAX_CODE_LENGTH)
    for symbol in np.flatnonzero(lengths).tolist():
        length = int(lengths[symbol])
        free = MAX_CODE_LENGTH - length
        start = int(codes[symbol]) << free
        category = symbol & 0x0F
        if not category or category > free:
            # EOB, ZRL or a magnitude that runs past the window.
            table[start:start + (1 << free)] = [(length, symbol, 0)] * (1 << free)
            continue
        spare = free - category
        for bits in range(1 << category):
            if bits >> (category - 1):
                value = bits
            else:
                value = bits - (1 << category) + 1
            low = start | (bits << spare)
            table[low:low + (1 << spare)] = [
                (length + category, (symbol >> 4) + 1, value)
            ] * (1 << spare)
    return table


class _ChannelCoder:
    """Encode / decode one channel with a given quantization table.

    Every coder codes with the two Annex K luminance tables.  They and
    the fused encode arrays derived from them are class attributes,
    built once per process; so is the AC token table of the decoder,
    built on the first decode.  Only the zig-zag steps are per table.
    """

    dc_huffman = HuffmanTable.standard_dc_luminance()
    ac_huffman = HuffmanTable.standard_ac_luminance()
    (
        _dc_fused_codes, _dc_fused_lengths,
        _ac_fused_codes, _ac_fused_lengths,
        _zrl_chain_codes, _zrl_chain_lengths,
        _eob_code, _eob_length,
    ) = _fused_tables(dc_huffman, ac_huffman)
    #: The decoder's :func:`_ac_token_table`, built on the first decode.
    _ac_tokens = None

    def __init__(self, table: QuantizationTable) -> None:
        self.table = table
        # Quantization steps in zig-zag order: quantizing after the
        # zig-zag gather is elementwise-identical to quantizing before
        # it, and saves a pass over the (N, 8, 8) stack.
        self._zz_steps = np.asarray(table.values, dtype=np.float64).reshape(
            64
        )[ZIGZAG_ORDER].copy()

    def quantized_batch(self, images: np.ndarray) -> tuple:
        """Zig-zag quantized blocks of an ``(N, H, W)`` stack.

        The block DCT of :func:`~repro.jpeg.blocks.image_dct`, then the
        zig-zag gather and the quantization (elementwise, so quantizing
        after the gather is bit-identical to quantizing before it).
        Returns ``(zz_blocks, grid_shape)``, where blocks of image ``i``
        occupy the contiguous range ``[i * rows * cols, (i + 1) * rows *
        cols)``.  Every path quantizes here; a single image is a batch
        of one.
        """
        coefficients, grid_shape = image_dct(images)
        flat = coefficients.reshape(-1, 64)
        zz = np.rint(flat[:, ZIGZAG_ORDER] / self._zz_steps).astype(np.int64)
        return zz, grid_shape

    def reconstruct_batch(
        self, zz_blocks: np.ndarray, count: int, grid_shape: tuple,
        image_shape: tuple,
    ) -> np.ndarray:
        """``(N, H, W)`` images from a batch of zig-zag quantized blocks."""
        rows, cols = grid_shape
        dequantized = (zz_blocks * self._zz_steps)[:, INVERSE_ZIGZAG_ORDER]
        return image_idct(
            dequantized.reshape(count, rows, cols, 8, 8), image_shape
        )

    # ------------------------------------------------------------------
    # Entropy coding
    # ------------------------------------------------------------------

    def entropy_code(
        self, zz_blocks: np.ndarray, reset_interval: int = 0
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Huffman-code a block stack into packable ``(values, lengths)``.

        Returns parallel ``(values, lengths)`` arrays ready for
        :func:`~repro.jpeg.bitstream.pack_bits`, plus the number of
        entries contributed by each block (for batch splitting).  The
        coder emits ONE entry per coded unit — a DC entry fuses Huffman
        code and magnitude bits; a nonzero-AC entry additionally fuses
        its preceding ZRL escapes — which keeps the arrays small and
        avoids scattering per-token records.  A DC difference above size
        category 11 or an AC value above category 10 has no Annex K code:
        it raises ``ValueError`` before any symbol is formed.
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

        diffs, rows, ac_values, zrl_counts, runs, has_eob = block_run_stats(
            zz, reset_interval
        )
        n_nonzero = rows.shape[0]
        # Checked first: a larger AC category would carry into the run
        # nibble of its symbol (category 16 after 14 zeros is ZRL).
        _require_codable(diffs, _MAX_DC_CATEGORY, "DC difference")
        _require_codable(ac_values, _MAX_AC_CATEGORY, "AC coefficient", rows)

        # One fused magnitude pass over DC diffs and AC values.
        magnitudes = np.concatenate([diffs, ac_values])
        absolutes = np.abs(magnitudes)
        categories = _CATEGORY_LUT[absolutes]
        # T.81 one's complement: negatives add (2**category - 1); the
        # arithmetic sign mask replaces a `np.where` over two branches.
        amplitude_bits = magnitudes + (
            (magnitudes >> 63) & _CATEGORY_MASK_LUT[absolutes]
        )

        dc_categories = categories[:n_blocks]
        dc_lengths = self._dc_fused_lengths[dc_categories]
        dc_values = self._dc_fused_codes[dc_categories] | amplitude_bits[
            :n_blocks
        ]

        if n_nonzero:
            symbols = ((runs & MAX_ZERO_RUN) << 4) | categories[n_blocks:]
            coded_lengths = self._ac_fused_lengths[symbols]
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

    def encode_quantized(self, zz_blocks: np.ndarray) -> bytes:
        """Entropy-code pre-quantized zig-zag blocks into a byte stream."""
        values, lengths, _ = self.entropy_code(zz_blocks)
        return pack_bits(values, lengths)

    def encode(self, channel: np.ndarray) -> EncodedChannel:
        """Entropy-code one channel into bytes (vectorized fast path)."""
        zz_blocks, grid_shape = self.quantized_batch(channel[np.newaxis])
        return EncodedChannel(
            data=self.encode_quantized(zz_blocks),
            grid_shape=grid_shape,
            channel_shape=(channel.shape[0], channel.shape[1]),
            block_count=zz_blocks.shape[0],
        )

    def decode_to_zigzag(self, data: bytes, block_count: int) -> np.ndarray:
        """Entropy-decode a byte stream into ``(block_count, 64)`` blocks.

        Table-driven: each DC code is resolved in O(1) against the 16-bit
        peek windows precomputed for every bit offset of the destuffed
        payload, and each AC token, magnitude included, with one lookup
        in the whole-token table (:func:`_ac_token_table`).  The walk
        collects the ``(slot, value)`` pair of every nonzero AC
        coefficient and scatters them into the blocks at once.  A
        malformed stream raises ``ValueError`` (an invalid code or an AC
        overrun) or ``EOFError`` (the stream is cut short).
        """
        words, total_bits = peek_words(data)
        dc_symbols, dc_lengths = self.dc_huffman.decode_lut()
        ac_tokens = _ChannelCoder._ac_tokens
        if ac_tokens is None:
            # Racing first decodes build equal tables; either serves.
            ac_tokens = _ChannelCoder._ac_tokens = _ac_token_table(
                self.ac_huffman
            )
        zz_blocks = np.zeros((block_count, 64), dtype=np.int32)
        try:
            slots, values = self._decode_walk(
                # The walk indexes words with Python ints; a plain list
                # avoids boxing a NumPy scalar per peek.
                words.tolist(), total_bits, zz_blocks, block_count,
                dc_symbols, dc_lengths, ac_tokens,
            )
        except IndexError:
            # A code decoded from padding bits of a truncated stream can
            # push the cursor past the peek-word list.
            raise EOFError("bit stream exhausted") from None
        zz_blocks.reshape(-1)[slots] = values
        return zz_blocks

    def _decode_walk(
        self, words, total_bits, zz_blocks, block_count,
        dc_symbols, dc_lengths, ac_tokens,
    ) -> "tuple[list, list]":
        """Write the DC values; return the nonzero AC slots and values."""
        slots = []
        values = []
        add_slot = slots.append
        add_value = values.append
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
            # Written per block, not scattered with the AC pairs: a
            # corrupt predictor outside int32 raises at its own block.
            zz_blocks[block_index, 0] = previous_dc
            # `slot` is the flat index of the last coefficient decoded.
            slot = block_index << 6
            last = slot + 63
            while slot < last:
                # One lookup resolves the token at the head of the
                # 16-bit window at `position`.
                advance, skip, value = ac_tokens[
                    (words[position >> 3] >> (48 - (position & 7))) & 0xFFFF
                ]
                position += advance
                if value:
                    slot += skip
                    if slot > last:
                        raise ValueError(
                            "AC stream overruns block during decode"
                        )
                    add_slot(slot)
                    add_value(value)
                    continue
                # `skip` holds the symbol and `advance` its code length.
                if skip == EOB_SYMBOL:
                    break
                if skip == ZRL_SYMBOL:
                    slot += MAX_ZERO_RUN + 1
                    continue
                if skip < 0:
                    # A code window that spills past the payload means
                    # the stream was cut short, not that the table is bad.
                    if position + 16 > total_bits:
                        raise EOFError("bit stream exhausted")
                    raise ValueError(
                        "invalid Huffman code in table "
                        f"'{self.ac_huffman.name}'"
                    )
                slot += (skip >> 4) + 1
                if slot > last:
                    raise ValueError(
                        "AC stream overruns block during decode"
                    )
                # Code plus magnitude exceed 16 bits: read the magnitude
                # from the 64-bit word of the token's start.
                start = position - advance
                category = skip & 0x0F
                amplitude = (
                    words[start >> 3] >> (64 - (start & 7) - advance - category)
                ) & ((1 << category) - 1)
                position += category
                if amplitude >> (category - 1):
                    add_value(amplitude)
                else:
                    add_value(amplitude - (1 << category) + 1)
                add_slot(slot)
        # A valid decode never reads past the payload: the final token
        # ends at or before the last real bit (the remainder of the
        # closing byte is padding).  Any overrun means truncation.
        if position > total_bits:
            raise EOFError("bit stream exhausted")
        return slots, values

    def decode(self, encoded: EncodedChannel) -> np.ndarray:
        """Decode an :class:`EncodedChannel` back into a pixel channel."""
        zz_blocks = self.decode_to_zigzag(encoded.data, encoded.block_count)
        return self.reconstruct_batch(
            zz_blocks, 1, encoded.grid_shape, encoded.channel_shape
        )[0]


class GrayscaleJpegCodec:
    """Baseline-JPEG-style codec for single-channel images.

    Parameters
    ----------
    table:
        The quantization table used for every block; this is the object
        DeepN-JPEG replaces.  Entropy coding always uses the Annex K
        luminance Huffman tables.
    """

    def __init__(self, table: QuantizationTable) -> None:
        self.table = table
        self._coder = _ChannelCoder(table)

    def encode(self, image: np.ndarray) -> EncodedChannel:
        """Entropy-code a 2-D image; returns the encoded channel."""
        return self._coder.encode(_require_grayscale(image))

    def decode(self, encoded: EncodedChannel) -> np.ndarray:
        """Decode an image previously produced by :meth:`encode`."""
        return self._coder.decode(encoded)

    def encode_to_bytes(self, image: np.ndarray) -> bytes:
        """Encode one image into a self-contained byte container.

        The container embeds the quantization table, so
        :func:`repro.jpeg.container.decode_image_bytes` inverts it with
        no out-of-band state.
        """
        from repro.jpeg.container import pack_grayscale_image

        return pack_grayscale_image(self.encode(image), self.table)

    def compress(self, image: np.ndarray) -> CompressionResult:
        """Round-trip one image and report sizes and the reconstruction.

        The image goes through the batch stages as a batch of one.  The
        reconstruction is computed directly from the quantized
        coefficients: the entropy layer is lossless, so decoding the
        just-encoded stream would yield exactly the same blocks (the
        tests assert this equivalence against :meth:`decode`).
        """
        image = _require_grayscale(image)
        coder = self._coder
        zz_blocks, grid_shape = coder.quantized_batch(image[np.newaxis])
        data = coder.encode_quantized(zz_blocks)
        reconstructed = coder.reconstruct_batch(
            zz_blocks, 1, grid_shape, image.shape
        )[0]
        return CompressionResult(
            payload_bytes=len(data),
            header_bytes=_HEADER_BYTES,
            original_bytes=int(image.shape[0] * image.shape[1]),
            reconstructed=reconstructed,
        )

    def compress_batch(self, images: np.ndarray) -> "list[CompressionResult]":
        """Round-trip a stack of same-shaped images ``(N, H, W)`` at once.

        Blocking, DCT, quantization, run derivation and Huffman code
        assignment each run as a single vectorized pass over every block
        of every image (the DC predictor resets at image boundaries).
        Per-image byte streams are identical to what :meth:`compress`
        produces image by image.
        """
        images = np.asarray(images, dtype=np.float64)
        if images.ndim != 3:
            raise ValueError(
                f"expected an (N, H, W) image stack, got shape {images.shape}"
            )
        count, height, width = images.shape
        coder = self._coder
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
        results = []
        for index in range(count):
            data = pack_bits(
                values[boundaries[index]:boundaries[index + 1]],
                lengths[boundaries[index]:boundaries[index + 1]],
            )
            results.append(
                CompressionResult(
                    payload_bytes=len(data),
                    header_bytes=_HEADER_BYTES,
                    original_bytes=int(height * width),
                    reconstructed=reconstructed[index],
                )
            )
        return results


def _require_codable(
    values: np.ndarray, max_category: int, kind: str, blocks=None
) -> None:
    """Raise ``ValueError`` for the first value above ``max_category``.

    ``blocks`` maps each value to its block index (``None``: the value's
    own index is its block).
    """
    limit = (1 << max_category) - 1
    if values.shape[0] == 0 or (
        values.max() <= limit and values.min() >= -limit
    ):
        return
    index = int(np.flatnonzero((values > limit) | (values < -limit))[0])
    block = index if blocks is None else int(blocks[index])
    value = int(values[index])
    raise ValueError(
        f"{kind} {value} in block {block} needs size category "
        f"{magnitude_category(value)}; the Annex K luminance tables code "
        f"at most {max_category}"
    )


def _require_grayscale(image: np.ndarray) -> np.ndarray:
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ValueError(
            f"expected a 2-D grayscale image, got shape {image.shape}"
        )
    return image


#: Marker-segment overhead of every file this codec writes: one
#: component, one quantization table, the two Annex K Huffman tables.
_HEADER_BYTES = (
    _SOI_BYTES
    + _APP0_BYTES
    + _DQT_BYTES_PER_TABLE
    + _SOF_FIXED_BYTES
    + _SOF_PER_COMPONENT_BYTES
    + 2 * _DHT_FIXED_BYTES
    + _ChannelCoder.dc_huffman.header_cost_bytes()
    + _ChannelCoder.ac_huffman.header_cost_bytes()
    + _SOS_FIXED_BYTES
    + _SOS_PER_COMPONENT_BYTES
    + _EOI_BYTES
)
