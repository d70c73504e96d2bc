"""Byte containers: exact round-trips and malformed-input rejection."""

import numpy as np
import pytest

from repro.jpeg.codec import ColorJpegCodec, GrayscaleJpegCodec
from repro.jpeg.container import (
    CONTAINER_MAGIC,
    ContainerError,
    decode_image_bytes,
    pack_color_image,
    pack_grayscale_image,
    unpack_container,
)
from repro.jpeg.huffman import HuffmanTable
from repro.jpeg.quantization import QuantizationTable


@pytest.fixture(scope="module")
def gray_image():
    rng = np.random.default_rng(21)
    return rng.uniform(0.0, 255.0, size=(24, 20)).round()


@pytest.fixture(scope="module")
def rgb_image():
    rng = np.random.default_rng(22)
    return rng.uniform(0.0, 255.0, size=(16, 24, 3)).round()


def _assert_channels_equal(left, right):
    assert left.data == right.data
    assert left.grid_shape == right.grid_shape
    assert left.channel_shape == right.channel_shape
    assert left.block_count == right.block_count
    assert left.dc_huffman == right.dc_huffman
    assert left.ac_huffman == right.ac_huffman


class TestGrayscaleRoundTrip:
    @pytest.mark.parametrize("optimize_huffman", [False, True])
    def test_byte_exact_round_trip(self, gray_image, optimize_huffman):
        codec = GrayscaleJpegCodec(
            QuantizationTable.standard_luminance(80),
            optimize_huffman=optimize_huffman,
        )
        encoded = codec.encode(gray_image)
        blob = pack_grayscale_image(encoded, codec.table)
        kind, unpacked, (table,) = unpack_container(blob)
        assert kind == "grayscale"
        _assert_channels_equal(unpacked, encoded)
        np.testing.assert_array_equal(table.values, codec.table.values)
        assert table.name == codec.table.name
        # Re-packing the unpacked container reproduces identical bytes.
        assert pack_grayscale_image(unpacked, table) == blob

    @pytest.mark.parametrize("optimize_huffman", [False, True])
    def test_decode_image_bytes_matches_codec(
        self, gray_image, optimize_huffman
    ):
        codec = GrayscaleJpegCodec(
            QuantizationTable.standard_luminance(70),
            optimize_huffman=optimize_huffman,
        )
        blob = codec.encode_to_bytes(gray_image)
        np.testing.assert_array_equal(
            decode_image_bytes(blob), codec.decode(codec.encode(gray_image))
        )


class TestColorRoundTrip:
    @pytest.mark.parametrize("optimize_huffman", [False, True])
    @pytest.mark.parametrize("subsample", [False, True])
    def test_byte_exact_round_trip(self, rgb_image, subsample, optimize_huffman):
        codec = ColorJpegCodec(
            QuantizationTable.standard_luminance(80),
            QuantizationTable.standard_chrominance(80),
            subsample_chroma=subsample,
            optimize_huffman=optimize_huffman,
        )
        encoded = codec.encode(rgb_image)
        blob = pack_color_image(encoded, codec.luma_table, codec.chroma_table)
        kind, unpacked, (luma, chroma) = unpack_container(blob)
        assert kind == "color"
        assert unpacked.image_shape == encoded.image_shape
        assert unpacked.subsample_chroma == encoded.subsample_chroma
        for left, right in zip(unpacked.planes, encoded.planes):
            _assert_channels_equal(left, right)
        np.testing.assert_array_equal(luma.values, codec.luma_table.values)
        np.testing.assert_array_equal(chroma.values, codec.chroma_table.values)
        assert pack_color_image(unpacked, luma, chroma) == blob

    @pytest.mark.parametrize("optimize_huffman", [False, True])
    def test_decode_image_bytes_matches_codec(
        self, rgb_image, optimize_huffman
    ):
        codec = ColorJpegCodec(
            QuantizationTable.standard_luminance(65),
            optimize_huffman=optimize_huffman,
        )
        blob = codec.encode_to_bytes(rgb_image)
        np.testing.assert_array_equal(
            decode_image_bytes(blob), codec.decode(codec.encode(rgb_image))
        )

    def test_encode_decode_matches_compress_reconstruction(self, rgb_image):
        codec = ColorJpegCodec(QuantizationTable.standard_luminance(75))
        np.testing.assert_array_equal(
            codec.decode(codec.encode(rgb_image)),
            codec.compress(rgb_image).reconstructed,
        )


@pytest.fixture
def decode_lut_calls(monkeypatch):
    """Record ``(table, lut, built)`` for every ``decode_lut`` call."""
    calls = []
    original = HuffmanTable.decode_lut

    def spy(self):
        built = self._decode_lut is None
        lut = original(self)
        calls.append((self, lut, built))
        return lut

    monkeypatch.setattr(HuffmanTable, "decode_lut", spy)
    return calls


class TestSharedStandardTables:
    """Per-container codecs decode with the shared Annex K lookup tables."""

    def _decode_each(self, codec, images, calls):
        """Decode one container per image; returns each decode's LUT calls."""
        per_decode = []
        for image in images:
            start = len(calls)
            np.testing.assert_array_equal(
                decode_image_bytes(codec.encode_to_bytes(image)),
                codec.compress(image).reconstructed,
            )
            per_decode.append(calls[start:])
        return per_decode

    def _assert_reused(self, first, second, expected_tables):
        """Both decodes used ``expected_tables``; the second built nothing."""
        assert len(first) == len(second) == len(expected_tables)
        for (table, lut, _), (table_again, lut_again, built), expected in zip(
            first, second, expected_tables
        ):
            assert table is expected and table_again is expected
            assert lut_again is lut
            assert not built

    def test_grayscale_containers_share_one_lut(
        self, gray_image, decode_lut_calls
    ):
        codec = GrayscaleJpegCodec(QuantizationTable.standard_luminance(60))
        first, second = self._decode_each(
            codec, [gray_image, 255.0 - gray_image], decode_lut_calls
        )
        dc = HuffmanTable.standard_dc_luminance()
        ac = HuffmanTable.standard_ac_luminance()
        self._assert_reused(first, second, [dc, ac])

    def test_color_containers_share_one_lut(self, rgb_image, decode_lut_calls):
        codec = ColorJpegCodec(QuantizationTable.standard_luminance(60))
        first, second = self._decode_each(
            codec, [rgb_image, 255.0 - rgb_image], decode_lut_calls
        )
        luma = [
            HuffmanTable.standard_dc_luminance(),
            HuffmanTable.standard_ac_luminance(),
        ]
        chroma = [
            HuffmanTable.standard_dc_chrominance(),
            HuffmanTable.standard_ac_chrominance(),
        ]
        self._assert_reused(first, second, luma + chroma + chroma)

    @pytest.mark.parametrize("color", [False, True])
    def test_optimized_containers_build_their_own_luts(
        self, gray_image, rgb_image, color, decode_lut_calls
    ):
        table = QuantizationTable.standard_luminance(80)
        if color:
            codec = ColorJpegCodec(table, optimize_huffman=True)
        else:
            codec = GrayscaleJpegCodec(table, optimize_huffman=True)
        [calls] = self._decode_each(
            codec, [rgb_image if color else gray_image], decode_lut_calls
        )
        standard = [
            HuffmanTable.standard_dc_luminance(),
            HuffmanTable.standard_ac_luminance(),
            HuffmanTable.standard_dc_chrominance(),
            HuffmanTable.standard_ac_chrominance(),
        ]
        assert len(calls) == (6 if color else 2)
        for decoded_with, _, built in calls:
            assert built
            assert not any(decoded_with is shared for shared in standard)


class TestMalformedContainers:
    def _blob(self, gray_image):
        codec = GrayscaleJpegCodec(QuantizationTable.standard_luminance(80))
        return codec.encode_to_bytes(gray_image)

    def test_bad_magic(self, gray_image):
        blob = b"XXXX" + self._blob(gray_image)[4:]
        with pytest.raises(ContainerError, match="magic"):
            unpack_container(blob)

    def test_bad_version(self, gray_image):
        blob = bytearray(self._blob(gray_image))
        blob[len(CONTAINER_MAGIC)] = 99
        with pytest.raises(ContainerError, match="version"):
            unpack_container(bytes(blob))

    def test_unknown_kind(self, gray_image):
        blob = bytearray(self._blob(gray_image))
        blob[len(CONTAINER_MAGIC) + 1] = 7
        with pytest.raises(ContainerError, match="kind"):
            unpack_container(bytes(blob))

    def test_truncated(self, gray_image):
        blob = self._blob(gray_image)
        with pytest.raises(ContainerError, match="truncated"):
            unpack_container(blob[: len(blob) // 2])

    def test_trailing_bytes(self, gray_image):
        with pytest.raises(ContainerError, match="trailing"):
            unpack_container(self._blob(gray_image) + b"\x00")
