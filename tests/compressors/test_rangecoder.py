"""Tests for the adaptive binary range coder."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compressors import CodecError, get_codec
from repro.compressors.rangecoder import (
    RangeCoderCodec,
    RangeDecoder,
    RangeEncoder,
)


class TestPrimitives:
    def test_bit_stream_roundtrip(self):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, 2000).tolist()
        probs = [1 << 10] * 4
        enc = RangeEncoder()
        for b in bits:
            enc.encode_bit(probs, 1, b)
        blob = enc.flush()
        probs = [1 << 10] * 4
        dec = RangeDecoder(blob)
        assert [dec.decode_bit(probs, 1) for _ in bits] == bits

    def test_skewed_bits_compress(self):
        bits = [0] * 5000 + [1] * 30
        probs = [1 << 10] * 4
        enc = RangeEncoder()
        for b in bits:
            enc.encode_bit(probs, 1, b)
        blob = enc.flush()
        assert len(blob) < len(bits) // 8  # far below 1 bit/symbol

    def test_short_stream_rejected(self):
        with pytest.raises(CodecError):
            RangeDecoder(b"\x00\x01")


class TestCodec:
    @pytest.mark.parametrize("order", [0, 1])
    @pytest.mark.parametrize(
        "data",
        [b"", b"z", b"abab" * 200, bytes(range(256)), b"\x00" * 3000],
        ids=["empty", "one", "cycle", "alphabet", "zeros"],
    )
    def test_roundtrips(self, order, data):
        codec = RangeCoderCodec(order=order)
        assert codec.decompress(codec.compress(data)) == data

    def test_order1_beats_order0_on_contextual_data(self):
        data = b"the quick brown fox jumps over the lazy dog " * 200
        o0 = len(RangeCoderCodec(order=0).compress(data))
        o1 = len(RangeCoderCodec(order=1).compress(data))
        assert o1 < o0

    def test_order0_beats_huffman_on_skewed_iid(self):
        rng = np.random.default_rng(1)
        data = bytes(rng.zipf(1.4, 20000).clip(0, 255).astype(np.uint8))
        rc = len(RangeCoderCodec(order=0).compress(data))
        hf = len(get_codec("huffman").compress(data))
        assert rc < hf  # fractional-bit coding + adaptation

    def test_incompressible_expansion_bounded(self):
        data = np.random.default_rng(2).bytes(4000)
        codec = RangeCoderCodec()
        assert len(codec.compress(data)) < len(data) * 1.05 + 16

    def test_order_validation(self):
        with pytest.raises(ValueError):
            RangeCoderCodec(order=2)

    def test_corrupt_order_byte(self):
        codec = RangeCoderCodec()
        blob = bytearray(codec.compress(b"hello world"))
        blob[1] = 9
        with pytest.raises(CodecError):
            codec.decompress(bytes(blob))

    def test_registered(self):
        assert isinstance(get_codec("rangecoder"), RangeCoderCodec)

    @given(st.binary(max_size=600))
    @settings(max_examples=25, deadline=None)
    def test_property_roundtrip(self, data):
        codec = RangeCoderCodec()
        assert codec.decompress(codec.compress(data)) == data

    def test_light_corruption_fuzz(self):
        codec = RangeCoderCodec()
        blob = bytearray(codec.compress(b"some data to protect" * 20))
        rng = np.random.default_rng(3)
        for _ in range(15):
            corrupted = bytearray(blob)
            corrupted[int(rng.integers(0, len(corrupted)))] ^= 0xFF
            try:
                codec.decompress(bytes(corrupted))
            except CodecError:
                pass


class TestModelReuse:
    """The persistent uint32 model buffer must never leak state."""

    def test_repeat_compress_is_deterministic(self):
        codec = RangeCoderCodec()
        data = b"state leak canary " * 64
        first = codec.compress(data)
        # Interleave other work through the same instance, then repeat.
        codec.decompress(codec.compress(bytes(range(256)) * 8))
        assert codec.compress(data) == first

    def test_matches_fresh_instance(self):
        veteran = RangeCoderCodec(order=1)
        for chunk in (b"warmup" * 100, b"\x00" * 4096, b"xyz" * 333):
            veteran.decompress(veteran.compress(chunk))
        data = bytes(np.random.default_rng(11).integers(0, 256, 2048, dtype=np.uint8))
        assert veteran.compress(data) == RangeCoderCodec(order=1).compress(data)

    def test_decompress_honors_stream_order(self):
        # An order-0 instance must still decode an order-1 stream (the
        # order byte travels with the stream), exercising the larger
        # model slice on the smaller instance.
        data = b"order mismatch " * 50
        blob = RangeCoderCodec(order=1).compress(data)
        assert RangeCoderCodec(order=0).decompress(blob) == data

    def test_buffer_is_reused(self):
        codec = RangeCoderCodec()
        buf = codec._model_buf
        codec.decompress(codec.compress(b"hold that buffer" * 30))
        assert codec._model_buf is buf
