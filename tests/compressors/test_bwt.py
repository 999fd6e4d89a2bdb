"""Tests for the pybzip (BWT) codec and its stages."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compressors import CodecError, get_codec
from repro.compressors.bwt import (
    BwtCodec,
    bwt_inverse,
    bwt_transform,
    mtf_decode,
    mtf_encode,
)
from repro.compressors.huffman import encode_symbol_block
from repro.datasets import generate_bytes
from repro.util.varint import encode_uvarint


def _u8(data: bytes) -> np.ndarray:
    return np.frombuffer(data, dtype=np.uint8)


class TestBwtTransform:
    def test_known_banana(self):
        # Classic cyclic-BWT example.
        last, primary = bwt_transform(_u8(b"banana"))
        restored = bwt_inverse(last, primary)
        assert restored.tobytes() == b"banana"

    def test_empty_and_single(self):
        last, primary = bwt_transform(_u8(b""))
        assert bwt_inverse(last, primary).tobytes() == b""
        last, primary = bwt_transform(_u8(b"q"))
        assert bwt_inverse(last, primary).tobytes() == b"q"

    def test_all_equal_bytes(self):
        last, primary = bwt_transform(_u8(b"aaaaaaaa"))
        assert bwt_inverse(last, primary).tobytes() == b"aaaaaaaa"

    def test_periodic_input(self):
        data = b"abab" * 100
        last, primary = bwt_transform(_u8(data))
        assert bwt_inverse(last, primary).tobytes() == data

    def test_groups_similar_context(self):
        # BWT of English-ish text should have longer runs than the input.
        data = b"she sells sea shells by the sea shore " * 50
        last, _ = bwt_transform(_u8(data))
        runs_in = np.count_nonzero(np.diff(_u8(data)) != 0)
        runs_out = np.count_nonzero(np.diff(last) != 0)
        assert runs_out < runs_in

    def test_primary_out_of_range_rejected(self):
        with pytest.raises(CodecError):
            bwt_inverse(_u8(b"abc"), 5)

    @given(st.binary(min_size=0, max_size=300))
    @settings(max_examples=80, deadline=None)
    def test_property_roundtrip(self, data):
        last, primary = bwt_transform(_u8(data))
        assert bwt_inverse(last, primary).tobytes() == data


class TestMtf:
    def test_known_sequence(self):
        ranks = mtf_encode(_u8(b"aaa"))
        assert ranks.tolist() == [ord("a"), 0, 0]

    def test_roundtrip(self):
        data = _u8(b"mississippi river runs")
        assert np.array_equal(mtf_decode(mtf_encode(data)), data)

    def test_local_reuse_gives_small_ranks(self):
        data = _u8(b"aaabbbaaabbb" * 20)
        ranks = mtf_encode(data)
        assert (ranks[5:] <= 2).mean() > 0.95

    @given(st.binary(max_size=400))
    @settings(max_examples=60, deadline=None)
    def test_property_roundtrip(self, data):
        arr = _u8(data)
        assert np.array_equal(mtf_decode(mtf_encode(arr)), arr)


class TestBwtCodec:
    @pytest.mark.parametrize(
        "data",
        [b"", b"x", b"ab" * 5000, b"\x00" * 20000, b"compression " * 500],
        ids=["empty", "one", "cycle", "zeros", "text"],
    )
    def test_roundtrips(self, data):
        codec = BwtCodec()
        assert codec.decompress(codec.compress(data)) == data

    def test_multi_block_roundtrip(self):
        codec = BwtCodec(block_size=1024)
        data = (b"block boundary test " * 300)[:5000]
        assert codec.decompress(codec.compress(data)) == data

    def test_float_roundtrip(self, noisy_doubles):
        codec = BwtCodec(block_size=16384)
        assert codec.decompress(codec.compress(noisy_doubles)) == noisy_doubles

    def test_beats_huffman_on_text(self):
        data = b"she sells sea shells by the sea shore " * 200
        bwt_size = len(BwtCodec().compress(data))
        huff_size = len(get_codec("huffman").compress(data))
        assert bwt_size < huff_size

    def test_block_size_validation(self):
        with pytest.raises(ValueError):
            BwtCodec(block_size=4)

    def test_registered_as_pybzip(self):
        assert isinstance(get_codec("pybzip"), BwtCodec)

    @given(st.binary(max_size=1500))
    @settings(max_examples=30, deadline=None)
    def test_property_roundtrip(self, data):
        codec = BwtCodec(block_size=512)
        assert codec.decompress(codec.compress(data)) == data

    def test_every_cut_and_flip_raises_only_codec_errors(self):
        # Every truncation and every byte flip (xor 0x01, 0x80, 0xFF) of
        # one 2 KiB stream: decompress returns bytes or raises a
        # CodecError.  A cut size header, block count, block length or
        # primary index used to escape as a bare ValueError.
        codec = BwtCodec()
        blob = codec.compress(generate_bytes("obs_temp", 256, seed=1201))
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

    def test_wrapping_zero_runs_are_typed(self):
        # Two 62-digit RUNB runs sum past 2^63; the block must be
        # refused before the int64 output size wraps negative.
        symbols = np.array([1] * 62 + [5] + [1] * 62, dtype=np.int64)
        stream = (
            encode_uvarint(16)  # size header
            + encode_uvarint(1)  # block count
            + encode_uvarint(16)  # block length
            + encode_uvarint(0)  # primary index
            + encode_symbol_block(symbols, 258)
        )
        with pytest.raises(CodecError):
            BwtCodec().decompress(stream)
