"""Byte containers: exact round-trips and malformed-input rejection."""

import dataclasses
import hashlib
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.data import generate_freqnet
from repro.jpeg import codec as codec_module
from repro.jpeg.codec import GrayscaleJpegCodec, _ChannelCoder
from repro.jpeg.container import (
    _TABLE_MEMO_SIZE,
    CONTAINER_MAGIC,
    ContainerError,
    _table_codec,
    decode_image_bytes,
    pack_grayscale_image,
    unpack_container,
)
from repro.jpeg.huffman import HuffmanTable
from repro.jpeg.quantization import QuantizationTable


@pytest.fixture(scope="module")
def gray_image():
    rng = np.random.default_rng(21)
    return rng.uniform(0.0, 255.0, size=(24, 20)).round()


def _assert_channels_equal(left, right):
    assert left.data == right.data
    assert left.grid_shape == right.grid_shape
    assert left.channel_shape == right.channel_shape
    assert left.block_count == right.block_count


class TestGrayscaleRoundTrip:
    def test_byte_exact_round_trip(self, gray_image):
        codec = GrayscaleJpegCodec(QuantizationTable.standard_luminance(80))
        encoded = codec.encode(gray_image)
        blob = pack_grayscale_image(encoded, codec.table)
        unpacked, table = unpack_container(blob)
        _assert_channels_equal(unpacked, encoded)
        np.testing.assert_array_equal(table.values, codec.table.values)
        assert table.name == codec.table.name
        # Re-packing the unpacked container reproduces identical bytes.
        assert pack_grayscale_image(unpacked, table) == blob

    def test_decode_image_bytes_matches_codec(self, gray_image):
        codec = GrayscaleJpegCodec(QuantizationTable.standard_luminance(70))
        blob = codec.encode_to_bytes(gray_image)
        np.testing.assert_array_equal(
            decode_image_bytes(blob), codec.decode(codec.encode(gray_image))
        )


class TestPinnedBytes:
    """Container bytes are a wire format: they must not drift.

    The digests were recorded before the colour kind and the embedded
    Huffman tables were removed; grayscale containers stayed
    byte-identical through that change.
    """

    @pytest.mark.parametrize(
        "table, digest",
        [
            (
                QuantizationTable.standard_luminance(80),
                "57c73fcd231607511acda51df4d6c0d071a83919df264c64611003bd859969b2",
            ),
            (
                QuantizationTable.standard_luminance(50),
                "8d6b44e95961cf71309a1e79ff9e01b6baf20330cd3305b04181274825710d41",
            ),
            (
                QuantizationTable.flat(1),
                "39ca5fcb9d3a1a4e1dce16a503f325d863aa8a99db279a2f4a3881333d145258",
            ),
        ],
        ids=["luma-q80", "luma-q50", "flat-1"],
    )
    def test_encode_to_bytes_digest(self, gray_image, table, digest):
        blob = GrayscaleJpegCodec(table).encode_to_bytes(gray_image)
        assert hashlib.sha256(blob).hexdigest() == digest


@pytest.fixture
def decode_table_builds(monkeypatch):
    """Spy on the decode tables, with this process's AC token table unset.

    Returns ``(lut_calls, token_builds)``: ``(table, lut, built)`` for
    every ``decode_lut`` call and ``(ac_huffman, tokens)`` for every
    build of the AC token table.
    """
    lut_calls = []
    original_lut = HuffmanTable.decode_lut

    def spy_lut(self):
        built = self._decode_lut is None
        lut = original_lut(self)
        lut_calls.append((self, lut, built))
        return lut

    token_builds = []
    original_build = codec_module._ac_token_table

    def spy_build(ac_huffman):
        tokens = original_build(ac_huffman)
        token_builds.append((ac_huffman, tokens))
        return tokens

    monkeypatch.setattr(HuffmanTable, "decode_lut", spy_lut)
    monkeypatch.setattr(codec_module, "_ac_token_table", spy_build)
    monkeypatch.setattr(_ChannelCoder, "_ac_tokens", None)
    return lut_calls, token_builds


class TestSharedStandardTables:
    """Every decode reads the decode tables that the process built once."""

    def test_grayscale_containers_share_one_lut(
        self, gray_image, decode_table_builds
    ):
        lut_calls, token_builds = decode_table_builds
        images = [gray_image, 255.0 - gray_image]
        for image, quality in zip(images, (60, 90)):
            codec = GrayscaleJpegCodec(
                QuantizationTable.standard_luminance(quality)
            )
            np.testing.assert_array_equal(
                decode_image_bytes(codec.encode_to_bytes(image)),
                codec.compress(image).reconstructed,
            )
        # One DC LUT read per decode, the same lists both times; the AC
        # table is read only through its token table.
        dc = HuffmanTable.standard_dc_luminance()
        assert len(lut_calls) == 2
        (first_table, lut, _), (second_table, lut_again, built) = lut_calls
        assert first_table is dc and second_table is dc
        assert lut_again is lut and not built
        # The token table was built on the first decode only, from the
        # shared Annex K AC table, and both decodes read it.
        assert len(token_builds) == 1
        ac_huffman, tokens = token_builds[0]
        assert ac_huffman is HuffmanTable.standard_ac_luminance()
        assert _ChannelCoder._ac_tokens is tokens


@pytest.fixture
def table_memo():
    """The parsed-table memo, emptied so a test sees its own entries."""
    _table_codec.cache_clear()
    return _table_codec


def _blob_with_table(image, table):
    return GrayscaleJpegCodec(table).encode_to_bytes(image)


class TestParsedTableMemo:
    """Containers of a table already seen reuse its parsed table and codec."""

    def test_a_repeated_table_is_parsed_once(self, gray_image, table_memo):
        blob = _blob_with_table(
            gray_image, QuantizationTable.standard_luminance(75)
        )
        _, table = unpack_container(blob)
        _, table_again = unpack_container(blob)
        decode_image_bytes(blob)
        assert table_again is table
        info = table_memo.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 2, 1)

    @pytest.mark.parametrize(
        "field, match", [("name", "UTF-8"), ("step", "quantization")],
        ids=["non-utf8-name", "zero-step"],
    )
    def test_invalid_tables_raise_every_time_and_stay_out(
        self, gray_image, table_memo, field, match
    ):
        blob = bytearray(_blob_with_table(
            gray_image, QuantizationTable.standard_luminance(80)
        ))
        name_start = len(CONTAINER_MAGIC) + 3
        if field == "name":
            blob[name_start] = 0xFF  # the name's first byte
        else:
            blob[name_start + blob[name_start - 1]] = 0  # the DC step
        for _ in range(3):
            for read in (unpack_container, decode_image_bytes):
                with pytest.raises(ContainerError, match=match):
                    read(bytes(blob))
            info = table_memo.cache_info()
            assert (info.hits, info.currsize) == (0, 0)

    def test_size_stays_at_its_bound(self, gray_image, table_memo):
        image = gray_image[:8, :8]
        for step in range(1, _TABLE_MEMO_SIZE + 6):
            decode_image_bytes(
                _blob_with_table(image, QuantizationTable.flat(step))
            )
            assert table_memo.cache_info().currsize == min(
                step, _TABLE_MEMO_SIZE
            )

    def test_alternating_tables_decode_bit_exactly(
        self, gray_image, table_memo
    ):
        codecs = [
            GrayscaleJpegCodec(QuantizationTable.standard_luminance(quality))
            for quality in (30, 70, 95)
        ]
        images = [gray_image, 255.0 - gray_image]
        for _ in range(3):
            for codec in codecs:
                for image in images:
                    np.testing.assert_array_equal(
                        decode_image_bytes(codec.encode_to_bytes(image)),
                        codec.compress(image).reconstructed,
                    )
        info = table_memo.cache_info()
        assert (info.misses, info.currsize) == (3, 3)


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

    @pytest.mark.parametrize(
        "tail", [b"", b"\x01" + bytes(64)], ids=["header-only", "with-records"]
    )
    def test_colour_kind_no_longer_supported(self, tail):
        # Raised from the kind byte alone, before any record is read.
        blob = CONTAINER_MAGIC + bytes([1, 1]) + tail
        with pytest.raises(ContainerError, match="no longer supported"):
            unpack_container(blob)

    @pytest.mark.parametrize("flag", [1, 255])
    def test_embedded_huffman_tables_no_longer_supported(self, flag):
        # A grayscale record up to the embedded-tables flag; the tables
        # that would follow are never read.
        table = QuantizationTable.standard_luminance(80)
        name = table.name.encode("utf-8")
        blob = (
            CONTAINER_MAGIC + bytes([1, 0, len(name)]) + name
            + bytes(int(step) for step in table.values.reshape(-1))
            + struct.pack("<5I", 24, 20, 3, 3, 9) + bytes([flag])
        )
        with pytest.raises(ContainerError, match="no longer supported"):
            unpack_container(blob)

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

    def test_table_name_that_is_not_utf8(self, gray_image):
        blob = bytearray(self._blob(gray_image))
        blob[len(CONTAINER_MAGIC) + 3] = 0xFF  # the name's first byte
        with pytest.raises(ContainerError, match="UTF-8") as exc_info:
            unpack_container(bytes(blob))
        assert isinstance(exc_info.value.__cause__, UnicodeDecodeError)

    def test_zero_quantization_step(self, gray_image):
        blob = bytearray(self._blob(gray_image))
        name_length = blob[len(CONTAINER_MAGIC) + 2]
        blob[len(CONTAINER_MAGIC) + 3 + name_length] = 0  # the DC step
        with pytest.raises(ContainerError, match="quantization") as exc_info:
            unpack_container(bytes(blob))
        assert isinstance(exc_info.value.__cause__, ValueError)

    def test_stream_cut_short(self, gray_image):
        codec = GrayscaleJpegCodec(QuantizationTable.standard_luminance(80))
        encoded = codec.encode(gray_image)
        cut = dataclasses.replace(
            encoded, data=encoded.data[: len(encoded.data) // 2]
        )
        blob = pack_grayscale_image(cut, codec.table)
        unpack_container(blob)  # the fields still agree with the stream
        with pytest.raises(ContainerError, match="stream") as exc_info:
            decode_image_bytes(blob)
        assert isinstance(exc_info.value.__cause__, EOFError)


def test_seeded_byte_mutations_raise_only_container_error():
    """1000 mutations of 1-3 random bytes each, from ``default_rng(0)``.

    Each mutated container either decodes to an image of the height and
    width it records or raises :class:`ContainerError`; before the
    errors were typed, 255 of these escaped as ``EOFError``,
    ``UnicodeDecodeError`` or a bare ``ValueError``.
    """
    codec = GrayscaleJpegCodec(QuantizationTable.standard_luminance())
    blob = codec.encode_to_bytes(generate_freqnet().images[0])
    rng = np.random.default_rng(0)
    outcomes = {"decoded": 0, "ContainerError": 0}
    for _ in range(1000):
        mutated = bytearray(blob)
        for _ in range(rng.integers(1, 4)):
            mutated[rng.integers(0, len(mutated))] = rng.integers(0, 256)
        mutated = bytes(mutated)
        try:
            pixels = decode_image_bytes(mutated)
        except ContainerError:
            outcomes["ContainerError"] += 1
            continue
        encoded, _ = unpack_container(mutated)
        assert pixels.shape == encoded.channel_shape
        outcomes["decoded"] += 1
    assert outcomes["decoded"] and outcomes["ContainerError"]


def _with_channel_fields(blob, **fields):
    """``blob`` with some of its five u32 channel fields rewritten."""
    offset = len(CONTAINER_MAGIC) + 3 + blob[len(CONTAINER_MAGIC) + 2] + 64
    names = ("height", "width", "rows", "cols", "block_count")
    values = dict(zip(names, struct.unpack_from("<5I", blob, offset)))
    values.update(fields)
    packed = struct.pack("<5I", *(values[name] for name in names))
    return blob[:offset] + packed + blob[offset + len(packed):]


class TestChannelFields:
    """The channel fields must agree with each other and the stream."""

    @pytest.fixture(scope="class")
    def blob(self):
        codec = GrayscaleJpegCodec(QuantizationTable.standard_luminance(50))
        return codec.encode_to_bytes(np.full((16, 16), 128.0))

    @pytest.mark.parametrize(
        "fields",
        [
            {"block_count": 3},
            {"rows": 1, "cols": 2, "block_count": 2},
            {"height": 40},
        ],
        ids=["block-count", "grid", "height"],
    )
    def test_disagreeing_fields_raise(self, blob, fields):
        with pytest.raises(ContainerError, match="block grid"):
            decode_image_bytes(_with_channel_fields(blob, **fields))

    def test_block_count_bounded_by_stream_before_allocating(self, blob):
        huge = _with_channel_fields(
            blob, height=65535, width=65535, rows=8192, cols=8192,
            block_count=8192 * 8192,
        )
        tracemalloc.start()
        try:
            with pytest.raises(ContainerError, match="bits"):
                decode_image_bytes(huge)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_constant_image_meets_the_bound_exactly(self, blob):
        encoded, _ = unpack_container(blob)
        assert 6 * encoded.block_count == 8 * len(encoded.data)

    @pytest.mark.parametrize("shape", [(0, 8), (8, 0), (1, 1), (9, 17)])
    def test_edge_shapes_round_trip(self, shape):
        codec = GrayscaleJpegCodec(QuantizationTable.standard_luminance(50))
        image = np.random.default_rng(5).uniform(0.0, 255.0, shape).round()
        decoded = decode_image_bytes(codec.encode_to_bytes(image))
        assert decoded.shape == shape
        np.testing.assert_array_equal(
            decoded, codec.decode(codec.encode(image))
        )


@st.composite
def stacks_and_tables(draw):
    """A 3-image stack of one drawn shape, and a table of drawn steps."""
    height = draw(st.integers(1, 40))
    width = draw(st.integers(1, 40))
    pixels = draw(
        hnp.arrays(np.int64, (3, height, width), elements=st.integers(0, 255))
    )
    steps = draw(hnp.arrays(np.int64, (8, 8), elements=st.integers(1, 255)))
    return pixels.astype(np.float64), QuantizationTable(steps)


@settings(max_examples=40, deadline=None)
@given(stacks_and_tables())
def test_container_round_trip_property(stack_and_table):
    """The container decodes to the codec's own reconstruction, any shape."""
    stack, table = stack_and_table
    codec = GrayscaleJpegCodec(table)
    image = stack[1]
    blob = codec.encode_to_bytes(image)
    decoded = decode_image_bytes(blob)
    compressed = codec.compress(image).reconstructed
    batched = codec.compress_batch(stack)[1].reconstructed
    assert decoded.shape == image.shape
    assert decoded.tobytes() == compressed.tobytes()
    assert decoded.tobytes() == batched.tobytes()
    unpacked, _ = unpack_container(blob)
    encoded = codec.encode(image)
    assert unpacked.channel_shape == encoded.channel_shape == image.shape
    assert unpacked.grid_shape == encoded.grid_shape == (
        -(-image.shape[0] // 8), -(-image.shape[1] // 8),
    )
