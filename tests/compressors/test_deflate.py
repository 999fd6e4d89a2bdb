"""Tests for the pyzlib (DEFLATE-style) codec."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compressors import CodecError, get_codec, lz77
from repro.compressors.base import CorruptionError, TruncationError
from repro.compressors.deflate import DeflateCodec
from repro.compressors.lz77 import MIN_MATCH, rle_tokenize
from repro.util.varint import encode_uvarint


def reference_rle_matches(data: bytes) -> list[tuple[int, int]]:
    """zlib's ``Z_RLE`` rule, one byte at a time: ``(start, length)`` of
    every distance-1 match, each the rest of a run longer than MIN_MATCH."""
    matches = []
    i = 0
    while i < len(data):
        j = i + 1
        while j < len(data) and data[j] == data[i]:
            j += 1
        if j - i > MIN_MATCH:
            matches.append((i + 1, j - i - 1))
        i = j
    return matches


def _runs(pairs: list[tuple[int, int]]) -> bytes:
    return b"".join(bytes([value]) * length for value, length in pairs)


#: Runs of 1 .. MIN_MATCH + 2 bytes over a small alphabet, so that
#: neighbouring runs often share a value and merge.
_RUN_LISTS = st.lists(
    st.tuples(st.integers(0, 3), st.integers(1, MIN_MATCH + 2)), max_size=40
)


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


class TestRunParse:
    """zlib's ``Z_RLE`` parse: distance-1 matches read by the one decoder."""

    rle = DeflateCodec(strategy="rle")
    decoder = DeflateCodec()

    def _check(self, data: bytes) -> None:
        stream = rle_tokenize(data)
        stream.validate()
        starts = np.cumsum(stream.lit_runs[:-1]) + np.concatenate(
            ([0], np.cumsum(stream.match_lens)[:-1])
        )
        assert list(zip(starts.tolist(), stream.match_lens.tolist())) == (
            reference_rle_matches(data)
        )
        assert set(stream.match_dists.tolist()) <= {1}
        assert self.decoder.decompress(self.rle.compress(data)) == data

    @given(_RUN_LISTS)
    @settings(max_examples=200, deadline=None)
    def test_property_decodes_bit_exact(self, pairs):
        self._check(_runs(pairs))

    @given(
        st.integers(1, MIN_MATCH + 2),
        st.integers(1, MIN_MATCH + 2),
        st.binary(max_size=12),
    )
    @settings(max_examples=100, deadline=None)
    def test_runs_at_both_ends(self, head, tail, middle):
        self._check(b"\xaa" * head + middle + b"\x55" * tail)

    @pytest.mark.parametrize("n", [0, 1, 4, 5, 6, 1000, (1 << 16) + 7])
    def test_all_one_byte(self, n):
        self._check(b"\x07" * n)

    def test_short_inputs(self):
        # Every input of 0-8 bytes over a two-letter alphabet, and of
        # 0-3 bytes over every byte value at the ends.
        for n in range(9):
            for bits in range(1 << n):
                self._check(bytes((bits >> k) & 1 for k in range(n)))
        for value in range(256):
            self._check(bytes([value]))
            self._check(bytes([value, 0, value]))

    @given(_RUN_LISTS, st.integers(1, 9))
    @settings(max_examples=100, deadline=None)
    def test_runs_carry_across_slabs(self, pairs, slab):
        # Tiny slabs put slab edges inside and between runs.
        original = lz77._RUN_SLAB
        lz77._RUN_SLAB = slab
        try:
            self._check(_runs(pairs))
        finally:
            lz77._RUN_SLAB = original

    def test_level_does_not_apply(self):
        data = _runs([(1, 9), (2, 3), (3, 30)]) * 20
        assert DeflateCodec(level=1, strategy="rle").compress(data) == (
            self.rle.compress(data)
        )

    def test_strategy_validation(self):
        with pytest.raises(ValueError):
            DeflateCodec(strategy="huffman-only")

    def test_default_parse_unchanged(self):
        # The option is off by default; the registry's pyzlib is the
        # hash-chain parse, whose bytes the golden corpus pins.
        assert get_codec("pyzlib").strategy == "default"
        assert get_codec("pyzlib", strategy="rle").strategy == "rle"


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
        # The fourth is the run parse of a column-linearized ID stream.
        from repro.core.primacy import PrimacyConfig
        from repro.datasets import generate_bytes
        from tests.oracles import reference_id_stream

        rng = np.random.default_rng(2012)
        smooth = np.round(np.cumsum(rng.normal(0.0, 0.01, 128)) + 300.0, 2)
        id_stream, _, _ = reference_id_stream(
            generate_bytes("gts_phi_l", 512, seed=2012), PrimacyConfig()
        )
        default, rle = DeflateCodec(), DeflateCodec(strategy="rle")
        streams = [
            (default, b"the entropy coder makes the difference " * 30),
            (default, smooth.astype("<f8").tobytes()),
            (default, rng.bytes(120) + b"match" * 20 + rng.bytes(40) + bytes(200)),
            (rle, id_stream),
        ]
        codec = default
        for encoder, data in streams:
            blob = encoder.compress(data)
            assert encoder is default or rle_tokenize(data).n_matches > 20
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
