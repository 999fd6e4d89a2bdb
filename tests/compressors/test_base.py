"""Tests for the codec interface, registry, and measurement helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compressors import (
    Codec,
    CodecError,
    available_codecs,
    evaluate_codec,
    get_codec,
)
from repro.compressors.base import (
    CodecMetrics,
    CorruptionError,
    TruncationError,
    as_bytes,
    checked_uvarint,
    register_codec,
)
from repro.util.varint import encode_uvarint


class TestRegistry:
    def test_all_expected_codecs_registered(self):
        names = available_codecs()
        for expected in [
            "pyzlib",
            "pylzo",
            "pybzip",
            "huffman",
            "rle",
            "fpc",
            "fpzip",
            "null",
            "primacy",
        ]:
            assert expected in names

    def test_get_codec_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown codec"):
            get_codec("does-not-exist")

    def test_get_codec_passes_kwargs(self):
        codec = get_codec("pyzlib", level=1)
        assert codec.level == 1

    def test_register_requires_codec_subclass(self):
        with pytest.raises(TypeError):
            register_codec(int)

    def test_register_requires_name(self):
        class Nameless(Codec):
            def compress(self, data):
                return data

            def decompress(self, data):
                return data

        with pytest.raises(ValueError):
            register_codec(Nameless)


class TestInstanceCache:
    def test_same_options_share_instance(self):
        assert get_codec("pyzlib", level=3) is get_codec("pyzlib", level=3)
        assert get_codec("huffman") is get_codec("huffman")

    def test_distinct_options_distinct_instances(self):
        assert get_codec("pyzlib", level=1) is not get_codec("pyzlib", level=2)

    def test_unhashable_options_bypass_cache(self):
        class Tagged(Codec):
            name = "tagged-cache-test"

            def __init__(self, tags=()):
                self.tags = tags

            def compress(self, data):
                return bytes(data)

            def decompress(self, data):
                return bytes(data)

        from repro.compressors.base import _REGISTRY

        register_codec(Tagged)
        try:
            a = get_codec("tagged-cache-test", tags=["x"])
            b = get_codec("tagged-cache-test", tags=["x"])
            assert a is not b
        finally:
            del _REGISTRY["tagged-cache-test"]

    def test_non_cacheable_codec_never_shared(self):
        # PrimacyCodec keeps last_stats per call; sharing would leak
        # state between unrelated callers.
        assert get_codec("primacy") is not get_codec("primacy")

    def test_reregistration_invalidates(self):
        from repro.compressors.base import _REGISTRY

        class First(Codec):
            name = "reload-cache-test"

            def compress(self, data):
                return bytes(data)

            def decompress(self, data):
                return bytes(data)

        class Second(First):
            pass

        register_codec(First)
        try:
            old = get_codec("reload-cache-test")
            assert type(old) is First
            register_codec(Second)
            assert type(get_codec("reload-cache-test")) is Second
        finally:
            del _REGISTRY["reload-cache-test"]


class TestAsBytes:
    def test_bytes_passthrough(self):
        b = b"abc"
        assert as_bytes(b) is b

    def test_bytearray_and_memoryview(self):
        assert as_bytes(bytearray(b"xy")) == b"xy"
        assert as_bytes(memoryview(b"xy")) == b"xy"

    def test_ndarray(self):
        arr = np.array([1.0, 2.0], dtype="<f8")
        assert as_bytes(arr) == arr.tobytes()

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            as_bytes("a string")


class TestEvaluateCodec:
    def test_metrics_fields(self, smooth_doubles):
        m = evaluate_codec(get_codec("huffman"), smooth_doubles)
        assert m.original_bytes == len(smooth_doubles)
        assert m.compressed_bytes > 0
        assert m.compression_ratio == pytest.approx(
            m.original_bytes / m.compressed_bytes
        )
        assert m.sigma == pytest.approx(1.0 / m.compression_ratio)
        assert m.compression_mbps > 0
        assert m.decompression_mbps > 0

    def test_broken_codec_detected(self):
        class Broken(Codec):
            name = "broken-test"

            def compress(self, data):
                return data

            def decompress(self, data):
                return data[:-1] if data else data

        with pytest.raises(CodecError, match="round trip"):
            evaluate_codec(Broken(), b"hello")

    def test_repeats_validation(self):
        with pytest.raises(ValueError):
            evaluate_codec(get_codec("null"), b"x", repeats=0)

    def test_empty_input(self):
        m = evaluate_codec(get_codec("null"), b"")
        assert m.compression_ratio == 1.0
        assert m.sigma == 1.0


class TestCompressionRatioHelper:
    def test_cr_of_empty_is_one(self):
        assert get_codec("huffman").compression_ratio(b"") == 1.0

    def test_cr_matches_sizes(self):
        codec = get_codec("rle")
        data = b"\x00" * 1000
        cr = codec.compression_ratio(data)
        assert cr == pytest.approx(len(data) / len(codec.compress(data)))


class TestCodecMetricsDataclass:
    def test_sigma_for_zero_bytes(self):
        m = CodecMetrics(
            codec="x",
            original_bytes=0,
            compressed_bytes=0,
            compression_ratio=1.0,
            compression_mbps=0.0,
            decompression_mbps=0.0,
        )
        assert m.sigma == 1.0


class TestCheckedUvarint:
    def test_decodes_like_decode_uvarint(self):
        blob = b"\x07" + encode_uvarint(300) + encode_uvarint(2**63 - 1)
        assert checked_uvarint(blob, 0, "x") == (7, 1)
        assert checked_uvarint(blob, 1, "x") == (300, 3)
        assert checked_uvarint(blob, 3, "x") == (2**63 - 1, len(blob))

    @pytest.mark.parametrize("left", range(10))
    def test_cut_short_is_truncation(self, left):
        # Fewer than 10 bytes left, all continuation bytes: it ran out.
        blob = b"\x01" + b"\x80" * left
        with pytest.raises(TruncationError) as err:
            checked_uvarint(blob, 1, "count", "chunk[2]")
        assert (err.value.region, err.value.offset) == ("chunk[2]", 1)
        assert "bad count at byte 1" in str(err.value)

    @pytest.mark.parametrize("extra", [0, 1, 5])
    def test_too_long_is_corruption(self, extra):
        # Ten continuation bytes are too long to be a uvarint at all.
        blob = b"\xff" * 10 + b"\x01" * extra
        with pytest.raises(CorruptionError) as err:
            checked_uvarint(blob, 0, "count")
        assert not isinstance(err.value, TruncationError)
        assert err.value.region is None and err.value.offset == 0
