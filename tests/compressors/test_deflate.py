"""Tests for the pyzlib (DEFLATE-style) codec."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compressors import CodecError, get_codec
from repro.compressors.base import CorruptionError, TruncationError
from repro.compressors.deflate import DeflateCodec
from repro.util.varint import encode_uvarint


class TestRoundtrip:
    @pytest.mark.parametrize(
        "data",
        [
            b"",
            b"a",
            b"abc",
            b"aaaa" * 1000,
            b"the quick brown fox " * 200,
            bytes(range(256)) * 16,
        ],
        ids=["empty", "one", "short", "runs", "phrases", "cycle"],
    )
    def test_basic(self, data):
        codec = DeflateCodec()
        assert codec.decompress(codec.compress(data)) == data

    def test_random_data_roundtrip(self, random_bytes):
        codec = DeflateCodec()
        assert codec.decompress(codec.compress(random_bytes)) == random_bytes

    def test_float_data_roundtrip(self, noisy_doubles):
        codec = DeflateCodec()
        assert codec.decompress(codec.compress(noisy_doubles)) == noisy_doubles

    @given(st.binary(max_size=2000))
    @settings(max_examples=50, deadline=None)
    def test_property_roundtrip(self, data):
        codec = DeflateCodec(level=3)
        assert codec.decompress(codec.compress(data)) == data


class TestBehaviour:
    def test_incompressible_expansion_bounded(self, random_bytes):
        codec = DeflateCodec()
        compressed = codec.compress(random_bytes)
        # Stored-block escape: tiny overhead only.
        assert len(compressed) <= len(random_bytes) + 10

    def test_compressible_data_shrinks(self):
        data = b"checkpoint-restart " * 500
        assert len(DeflateCodec().compress(data)) < len(data) // 4

    def test_levels_tradeoff(self):
        # Higher level searches deeper; ratio must not get worse.
        data = (b"pattern-%d " % 7) * 300 + bytes(range(200)) * 30
        fast = len(DeflateCodec(level=1).compress(data))
        best = len(DeflateCodec(level=9).compress(data))
        assert best <= fast

    def test_level_validation(self):
        with pytest.raises(ValueError):
            DeflateCodec(level=0)
        with pytest.raises(ValueError):
            DeflateCodec(level=10)

    def test_registered_as_pyzlib(self):
        assert isinstance(get_codec("pyzlib"), DeflateCodec)


class TestCorruptStreams:
    def test_truncated(self):
        codec = DeflateCodec()
        blob = codec.compress(b"some compressible data " * 50)
        with pytest.raises((CodecError, ValueError)):
            codec.decompress(blob[: len(blob) - 10])

    def test_unknown_mode(self):
        codec = DeflateCodec()
        blob = bytearray(codec.compress(b"hello world, hello world"))
        # Mode byte follows the uvarint length (first byte here).
        blob[1] = 0xEE
        with pytest.raises(CodecError, match="mode"):
            codec.decompress(bytes(blob))

    def test_truncated_stored_block(self):
        codec = DeflateCodec()
        blob = codec.compress(np.random.default_rng(1).bytes(100))
        with pytest.raises(CodecError):
            codec.decompress(blob[:50])

    def test_every_cut_and_flip_raises_only_codec_errors(self):
        # Every truncation and every byte flip (xor 0x01, 0x80, 0xFF) of
        # three compressed streams: decompress returns bytes or raises a
        # CodecError.  A cut uvarint (size header, match count, bucket
        # count, extras length) used to escape as a bare ValueError.
        rng = np.random.default_rng(2012)
        smooth = np.round(np.cumsum(rng.normal(0.0, 0.01, 128)) + 300.0, 2)
        streams = [
            b"the entropy coder makes the difference " * 30,
            smooth.astype("<f8").tobytes(),
            rng.bytes(120) + b"match" * 20 + rng.bytes(40) + bytes(200),
        ]
        codec = DeflateCodec()
        for data in streams:
            blob = codec.compress(data)
            assert blob[len(encode_uvarint(len(data)))] == 1  # not stored
            cases = [blob[:cut] for cut in range(len(blob))]
            for at in range(len(blob)):
                for mask in (0x01, 0x80, 0xFF):
                    flipped = bytearray(blob)
                    flipped[at] ^= mask
                    cases.append(bytes(flipped))
            for case in cases:
                try:
                    codec.decompress(case)
                except CodecError:
                    pass

    def test_bad_uvarints_are_typed(self):
        codec = DeflateCodec()
        blob = codec.compress(b"typed uvarints " * 40)
        body = len(encode_uvarint(600)) + 1
        # The size header and the match count cut short, then too long.
        for bad in (b"\x80", blob[: body] + b"\x80"):
            with pytest.raises(TruncationError):
                codec.decompress(bad)
        for bad in (b"\xff" * 10 + b"\x01", blob[:body] + b"\xff" * 10 + b"\x01"):
            with pytest.raises(CorruptionError) as err:
                codec.decompress(bad)
            assert not isinstance(err.value, TruncationError)
