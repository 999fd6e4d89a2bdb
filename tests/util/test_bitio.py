"""Tests for repro.util.bitio: bit packing invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util import bitio
from repro.util.bitio import BitWriter, pack_bits


def reference_pack_bits(codes: np.ndarray, lengths: np.ndarray) -> bytes:
    """The bit-matrix packer :func:`pack_bits` replaced: every codeword
    expanded into a row of ``max(lengths)`` bits, the valid ones selected
    row-major, then ``np.packbits``."""
    codes = np.ascontiguousarray(codes, dtype=np.uint64)
    lengths = np.ascontiguousarray(lengths, dtype=np.int64)
    if codes.shape != lengths.shape:
        raise ValueError("codes and lengths must have identical shapes")
    if codes.ndim != 1:
        raise ValueError("pack_bits expects 1-D arrays")
    if lengths.size == 0:
        return b""
    if lengths.min() < 0 or lengths.max() > 57:
        raise ValueError("code lengths must be in [0, 57]")
    max_len = int(lengths.max())
    if max_len == 0:
        return b""
    j = np.arange(max_len, dtype=np.int64)
    shift = np.maximum(lengths[:, None] - 1 - j, 0).astype(np.uint64)
    bitmat = ((codes[:, None] >> shift) & np.uint64(1)).astype(np.uint8)
    valid = j < lengths[:, None]
    return np.packbits(bitmat[valid]).tobytes()


def _raises(fn, *args) -> str | None:
    """The message of the ``ValueError`` that ``fn(*args)`` raises, if any."""
    try:
        fn(*args)
    except ValueError as exc:
        return str(exc)
    return None


def _reference_pack(codes, lengths) -> bytes:
    """Bit-by-bit reference implementation (slow, obviously correct)."""
    bits = []
    for code, length in zip(codes, lengths):
        for j in range(length - 1, -1, -1):
            bits.append((code >> j) & 1)
    out = bytearray()
    for i in range(0, len(bits), 8):
        byte = 0
        for b in bits[i : i + 8]:
            byte = (byte << 1) | b
        byte <<= max(0, 8 - len(bits[i : i + 8]))
        out.append(byte)
    return bytes(out)


class TestPackBits:
    def test_empty(self):
        assert pack_bits(np.zeros(0, np.uint64), np.zeros(0, np.int64)) == b""

    def test_single_byte_alignment(self):
        out = pack_bits(np.array([0b1011], np.uint64), np.array([4], np.int64))
        assert out == bytes([0b10110000])

    def test_multibyte_codeword(self):
        out = pack_bits(np.array([0x1FF], np.uint64), np.array([9], np.int64))
        assert out == bytes([0xFF, 0x80])

    def test_zero_length_codes_are_skipped(self):
        codes = np.array([0b1, 0b0, 0b1], np.uint64)
        lengths = np.array([1, 0, 1], np.int64)
        assert pack_bits(codes, lengths) == bytes([0b11000000])

    def test_matches_reference_on_mixed_lengths(self):
        rng = np.random.default_rng(5)
        lengths = rng.integers(1, 24, 500)
        codes = np.array(
            [rng.integers(0, 1 << l) for l in lengths], dtype=np.uint64
        )
        assert pack_bits(codes, lengths.astype(np.int64)) == _reference_pack(
            codes.tolist(), lengths.tolist()
        )

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            pack_bits(np.zeros(3, np.uint64), np.zeros(2, np.int64))

    def test_rejects_overlong_codes(self):
        with pytest.raises(ValueError):
            pack_bits(np.array([1], np.uint64), np.array([60], np.int64))

    def test_rejects_negative_lengths(self):
        with pytest.raises(ValueError):
            pack_bits(np.array([1], np.uint64), np.array([-1], np.int64))

    @given(
        st.lists(
            st.tuples(st.integers(0, 20), st.integers(0, (1 << 20) - 1)),
            max_size=200,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_property_matches_reference(self, pairs):
        lengths = np.array([l for l, _ in pairs], dtype=np.int64)
        codes = np.array(
            [c & ((1 << l) - 1) if l else 0 for l, c in pairs], dtype=np.uint64
        )
        assert pack_bits(codes, lengths) == _reference_pack(
            codes.tolist(), lengths.tolist()
        )


class TestReferenceEquivalence:
    """The word-level packer against the bit-matrix one it replaced."""

    @given(
        st.lists(
            st.tuples(st.integers(0, 57), st.integers(0, 2**64 - 1)),
            max_size=300,
        ),
        st.sampled_from([None, 0, 1, 8, 13, 57]),
    )
    @settings(max_examples=200, deadline=None)
    def test_property_equals_reference(self, pairs, cap):
        # Codes keep bits above their length; ``cap`` bounds every length
        # (None: no bound), so zero-length codes and whole-word spans show
        # up often.
        lengths = np.array(
            [n if cap is None else min(n, cap) for n, _ in pairs], dtype=np.int64
        )
        codes = np.array([c for _, c in pairs], dtype=np.uint64)
        assert pack_bits(codes, lengths) == reference_pack_bits(codes, lengths)

    @given(
        st.lists(
            st.tuples(st.integers(0, 57), st.integers(0, 2**64 - 1)),
            max_size=100,
        ),
        st.integers(1, 9),
    )
    @settings(max_examples=200, deadline=None)
    def test_property_slabs_equal_reference(self, pairs, slab):
        # Tiny slabs: every slab edge falls inside a byte or a word, and
        # the unfinished byte carries over as the next slab's first code.
        lengths = np.array([n for n, _ in pairs], dtype=np.int64)
        codes = np.array([c for _, c in pairs], dtype=np.uint64)
        original = bitio._SLAB
        bitio._SLAB = slab
        try:
            got = pack_bits(codes, lengths)
        finally:
            bitio._SLAB = original
        assert got == reference_pack_bits(codes, lengths)

    @given(
        st.lists(
            st.lists(st.tuples(st.integers(0, 57), st.integers(0, 2**64 - 1))),
            max_size=6,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_bit_writer_joins_pieces(self, pieces):
        writer = BitWriter()
        for piece in pieces:
            writer.write(
                np.array([c for _, c in piece], dtype=np.uint64),
                np.array([n for n, _ in piece], dtype=np.int64),
            )
        pairs = [pair for piece in pieces for pair in piece]
        lengths = np.array([n for n, _ in pairs], dtype=np.int64)
        codes = np.array([c for _, c in pairs], dtype=np.uint64)
        assert writer.bits == int(lengths.sum())
        assert writer.getvalue() == reference_pack_bits(codes, lengths)

    @pytest.mark.parametrize("length", range(58))
    def test_every_length_at_every_bit_offset(self, length):
        # One code of each length after a prefix that puts it at each of
        # the 64 bit offsets of a word, with all 64 code bits set.
        for offset in range(64):
            lengths = np.array([offset // 2, offset - offset // 2, length, 3])
            codes = np.full(4, 2**64 - 1, dtype=np.uint64)
            assert pack_bits(codes, lengths) == reference_pack_bits(codes, lengths)

    def test_leading_and_trailing_empty_codes(self):
        codes = np.array([7, 7, 5, 7, 7], dtype=np.uint64)
        for lengths in ([0, 0, 3, 0, 0], [0, 0, 0, 0, 0], [0, 57, 0, 57, 0]):
            lengths = np.array(lengths, dtype=np.int64)
            assert pack_bits(codes, lengths) == reference_pack_bits(codes, lengths)

    @pytest.mark.parametrize(
        "codes, lengths",
        [
            (np.zeros(3, np.uint64), np.zeros(2, np.int64)),
            (np.zeros((2, 2), np.uint64), np.ones((2, 2), np.int64)),
            (np.array([1], np.uint64), np.array([58], np.int64)),
            (np.array([1, 1], np.uint64), np.array([3, -1], np.int64)),
        ],
        ids=["shapes", "2-d", "overlong", "negative"],
    )
    def test_raises_what_the_reference_raises(self, codes, lengths):
        message = _raises(reference_pack_bits, codes, lengths)
        assert message is not None
        assert _raises(pack_bits, codes, lengths) == message
