"""Fuzz and parity tests for the stream-parallel FSM entropy decoder.

The vectorized decoder (:mod:`repro.jpeg.fsm_decode`) must be
bit-identical to the sequential table-driven walk on every valid
stream, and on malformed streams it must flag the stream so the codec
falls back to the walk — which raises exactly the error the walk
always raised.  These tests fuzz both properties: random quantization
tables × random images × ``optimize_huffman`` on/off for the valid
side, and exhaustive truncation plus random byte corruption for the
malformed side.
"""

from collections import Counter

import numpy as np
import pytest

from repro.jpeg.codec import GrayscaleJpegCodec, _ChannelCoder
from repro.jpeg.fsm_decode import decode_streams
from repro.jpeg.huffman import HuffmanTable
from repro.jpeg.quantization import QuantizationTable
from repro.jpeg.rle import block_symbol_histograms


def _encode_batch(coder, images):
    """Encode a stack of grayscale images; returns (datas, block_counts)."""
    datas, counts = [], []
    for image in images:
        zz_blocks, _ = coder.quantized_blocks(image)
        datas.append(coder.encode_quantized(zz_blocks))
        counts.append(zz_blocks.shape[0])
    return datas, counts


def _walk_outcome(coder, data, block_count):
    """Run the scalar walk; returns (result, None) or (None, exception)."""
    try:
        return coder.decode_to_zigzag_walk(data, block_count), None
    except (ValueError, EOFError) as exc:
        return None, exc


def _assert_fsm_matches_walk(coder, datas, counts, **kwargs):
    """Assert the FSM decode of every stream equals the walk outcome.

    Valid streams must be bit-identical; streams where the walk raises
    must be flagged (the codec's fallback then re-raises the walk's
    exact error), and flagged valid streams are tolerated only through
    the fallback — which this helper also checks end to end through
    ``decode_to_zigzag_batch`` semantics.
    """
    results, flagged = decode_streams(
        datas, counts, coder.dc_huffman, coder.ac_huffman, **kwargs
    )
    flagged = set(flagged)
    for index, (data, count) in enumerate(zip(datas, counts)):
        expected, error = _walk_outcome(coder, data, count)
        if error is not None:
            assert index in flagged, (
                f"stream {index}: walk raised {error!r} but FSM did not flag"
            )
        elif index in flagged:
            # Over-flagging a valid stream is a correctness no-op (the
            # fallback walk returns the right answer); it must still
            # round-trip correctly.
            np.testing.assert_array_equal(
                coder.decode_to_zigzag_walk(data, count), expected
            )
        else:
            np.testing.assert_array_equal(results[index], expected)


def _random_images(rng, count, shape=(24, 24)):
    smooth = np.clip(
        rng.normal(128, 40, (count,) + shape)
        + np.linspace(0, 60, shape[1])[None, None, :],
        0,
        255,
    )
    return list(smooth)


class TestFsmParityFuzz:
    def test_standard_tables_random_images(self, rng):
        codec = GrayscaleJpegCodec(QuantizationTable.standard_luminance(60))
        coder = codec._standard_coder()
        datas, counts = _encode_batch(coder, _random_images(rng, 24))
        _assert_fsm_matches_walk(coder, datas, counts)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_quant_tables(self, seed):
        rng = np.random.default_rng(seed)
        table = QuantizationTable(
            rng.integers(1, 80, (8, 8)).astype(float), name=f"fuzz-{seed}"
        )
        coder = GrayscaleJpegCodec(table)._standard_coder()
        datas, counts = _encode_batch(coder, _random_images(rng, 12))
        _assert_fsm_matches_walk(coder, datas, counts)

    def test_optimized_huffman_tables(self):
        """Per-image tables exercise non-standard code assignments."""
        rng = np.random.default_rng(3)
        table = QuantizationTable.standard_luminance(40)
        standard = GrayscaleJpegCodec(table)._standard_coder()
        zz_all = [
            standard.quantized_blocks(image)[0]
            for image in _random_images(rng, 16)
        ]
        # Every stream restarts its DC prediction at 0, so the shared
        # tables must count each stream's symbols on their own.
        dc_counts, ac_counts = Counter(), Counter()
        for zz in zz_all:
            dc, ac = block_symbol_histograms(zz)
            dc_counts.update(dc)
            ac_counts.update(ac)
        coder = _ChannelCoder(
            table,
            HuffmanTable.from_frequencies(dc_counts, "dc-optimized"),
            HuffmanTable.from_frequencies(ac_counts, "ac-optimized"),
        )
        datas = [coder.encode_quantized(zz) for zz in zz_all]
        counts = [zz.shape[0] for zz in zz_all]
        _assert_fsm_matches_walk(coder, datas, counts)

    def test_pure_noise_images(self, rng):
        """Noise maximizes AC token density (worst case for the FSM)."""
        coder = GrayscaleJpegCodec(
            QuantizationTable.flat(1)
        )._standard_coder()
        images = [
            rng.integers(0, 256, (16, 16)).astype(float) for _ in range(8)
        ]
        datas, counts = _encode_batch(coder, images)
        _assert_fsm_matches_walk(coder, datas, counts)

    def test_tiny_chunk_budget_splits_batch(self, rng):
        """A minimal chunk budget forces one stream per chunk."""
        coder = GrayscaleJpegCodec(
            QuantizationTable.standard_luminance(70)
        )._standard_coder()
        datas, counts = _encode_batch(coder, _random_images(rng, 6))
        _assert_fsm_matches_walk(coder, datas, counts, chunk_positions=1)

    def test_zero_block_and_empty_streams(self):
        coder = GrayscaleJpegCodec(
            QuantizationTable.standard_luminance(50)
        )._standard_coder()
        results, flagged = decode_streams(
            [b""], [0], coder.dc_huffman, coder.ac_huffman
        )
        assert flagged == []
        assert results[0].shape == (0, 64)

    def test_empty_batch(self):
        coder = GrayscaleJpegCodec(
            QuantizationTable.standard_luminance(50)
        )._standard_coder()
        results, flagged = decode_streams(
            [], [], coder.dc_huffman, coder.ac_huffman
        )
        assert results == [] and flagged == []


class TestFsmMalformedStreams:
    def test_truncation_every_cut_point(self, rng):
        """Every prefix of a valid stream decodes or fails like the walk."""
        coder = GrayscaleJpegCodec(
            QuantizationTable.standard_luminance(55)
        )._standard_coder()
        datas, counts = _encode_batch(coder, _random_images(rng, 2))
        for data, count in zip(datas, counts):
            cuts = list(range(len(data)))
            truncated = [data[:cut] for cut in cuts]
            _assert_fsm_matches_walk(coder, truncated, [count] * len(cuts))

    @pytest.mark.parametrize("seed", [10, 11])
    def test_corrupt_bytes(self, seed):
        """Random single-byte corruption: same accept/reject as the walk."""
        rng = np.random.default_rng(seed)
        coder = GrayscaleJpegCodec(
            QuantizationTable.standard_luminance(45)
        )._standard_coder()
        datas, counts = _encode_batch(coder, _random_images(rng, 4))
        corrupted, ccounts = [], []
        for data, count in zip(datas, counts):
            for _ in range(40):
                position = int(rng.integers(0, len(data)))
                value = int(rng.integers(0, 256))
                corrupted.append(
                    data[:position] + bytes([value]) + data[position + 1:]
                )
                ccounts.append(count)
        _assert_fsm_matches_walk(coder, corrupted, ccounts)

    def test_batch_api_raises_walk_error_on_malformed(self, rng):
        """The public batch API re-raises the walk's exact exception."""
        coder = GrayscaleJpegCodec(
            QuantizationTable.standard_luminance(50)
        )._standard_coder()
        datas, counts = _encode_batch(coder, _random_images(rng, 20))
        bad = datas[3][: max(1, len(datas[3]) // 3)]
        expected, error = _walk_outcome(coder, bad, counts[3])
        if error is None:
            pytest.skip("truncation happened to stay decodable")
        datas[3] = bad
        with pytest.raises(type(error), match=str(error)[:20] or None):
            coder.decode_to_zigzag_batch(datas, counts)

    def test_mixed_good_and_bad_batch(self, rng):
        """Good streams around a bad one still decode bit-identically."""
        coder = GrayscaleJpegCodec(
            QuantizationTable.standard_luminance(65)
        )._standard_coder()
        datas, counts = _encode_batch(coder, _random_images(rng, 10))
        datas[5] = datas[5][:4]
        _assert_fsm_matches_walk(coder, datas, counts)
