"""Tests for the pylzo (LZRW1-style) codec."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compressors import CodecError, get_codec
from repro.compressors.base import CorruptionError, TruncationError
from repro.compressors.lzrw import LzrwCodec
from repro.util.varint import decode_uvarint, encode_uvarint

# --------------------------------------------------------------------- #
# Reference codec: the original per-byte encoder and record-at-a-time    #
# decoder, kept as oracles for the table-driven ones.                    #
# --------------------------------------------------------------------- #

_HASH_BITS = 13
_HASH_SIZE = 1 << _HASH_BITS
_WINDOW = 4095
_MIN_MATCH = 3
_MAX_MATCH = 18
_PROFITABLE_MATCH = 4


def _reference_hash3(data: bytes) -> list[int]:
    arr = np.frombuffer(data, dtype=np.uint8).astype(np.uint32)
    u24 = arr[:-2] | (arr[1:-1] << np.uint32(8)) | (arr[2:] << np.uint32(16))
    h = (u24 * np.uint32(2654435761)) >> np.uint32(32 - _HASH_BITS)
    return h.tolist()


def reference_compress_body(data: bytes) -> bytes:
    """Hash every position, then extend each match one byte at a time."""
    n = len(data)
    hashes = _reference_hash3(data) if n >= _MIN_MATCH else []
    n_hash = len(hashes)
    table = [-1] * _HASH_SIZE

    out = bytearray()
    run_start = 0
    i = 0
    miss = 0
    limit = n - _PROFITABLE_MATCH
    while i <= limit:
        step = 1 + (miss >> 6)
        hv = hashes[i]
        cand = table[hv]
        table[hv] = i
        if cand >= 0 and i - cand <= _WINDOW:
            max_len = min(_MAX_MATCH, n - i)
            length = 0
            while length < max_len and data[cand + length] == data[i + length]:
                length += 1
            if length >= _PROFITABLE_MATCH:
                out += encode_uvarint(i - run_start)
                out += data[run_start:i]
                packed = ((length - _MIN_MATCH) << 12) | (i - cand)
                out.append(packed >> 8)
                out.append(packed & 0xFF)
                if i + 1 < n_hash:
                    table[hashes[i + 1]] = i + 1
                i += length
                run_start = i
                miss = 0
                continue
        miss += 1
        i += step

    out += encode_uvarint(n - run_start)
    out += data[run_start:]
    return bytes(out)


def reference_compress(data: bytes) -> bytes:
    n = len(data)
    header = encode_uvarint(n)
    if n == 0:
        return header
    body = reference_compress_body(data)
    if len(body) >= n:
        return header + bytes([0]) + data
    return header + bytes([1]) + body


def reference_decompress_body(data: bytes, pos: int, n: int) -> bytes:
    """Append one record at a time; raises ``ValueError`` on a cut uvarint."""
    out = bytearray()
    total = len(data)
    while len(out) < n:
        run, pos = decode_uvarint(data, pos)
        if run:
            if pos + run > total or len(out) + run > n:
                raise CodecError("truncated lzrw literal run")
            out += data[pos : pos + run]
            pos += run
        if len(out) >= n:
            break
        if pos + 2 > total:
            raise CodecError("truncated lzrw match")
        packed = (data[pos] << 8) | data[pos + 1]
        pos += 2
        length = (packed >> 12) + _MIN_MATCH
        offset = packed & 0x0FFF
        if offset == 0 or offset > len(out):
            raise CodecError("invalid lzrw match offset")
        start = len(out) - offset
        if offset >= length:
            out += out[start : start + length]
        else:
            chunk = bytes(out[start:])
            q, rem = divmod(length, offset)
            out += chunk * q + chunk[:rem]
    if len(out) != n:
        raise CodecError("lzrw output size mismatch")
    return bytes(out)


def reference_decompress(data: bytes) -> bytes:
    n, pos = decode_uvarint(data, 0)
    if n == 0:
        return b""
    if pos >= len(data):
        raise CodecError("truncated lzrw stream")
    mode = data[pos]
    pos += 1
    if mode == 0:
        raw = data[pos : pos + n]
        if len(raw) != n:
            raise CodecError("truncated stored block")
        return raw
    if mode != 1:
        raise CodecError(f"unknown lzrw mode {mode}")
    return reference_decompress_body(data, pos, n)


def _decode_outcome(decode, blob: bytes, errors=(CodecError,)) -> bytes | None:
    """``decode(blob)``, or None if it raised one of ``errors``."""
    try:
        return decode(blob)
    except errors:
        return None


def reference_outcome(blob: bytes) -> bytes | None:
    """The reference decoder's result; a cut uvarint escaped as ValueError."""
    return _decode_outcome(reference_decompress, blob, (CodecError, ValueError))


# --------------------------------------------------------------------- #
# Inputs that reach every encoder and decoder path                       #
# --------------------------------------------------------------------- #


def _random(low: int, high: int) -> st.SearchStrategy[bytes]:
    """Seeded random bytes, ``low..high`` long (no matches to speak of)."""
    return st.tuples(st.integers(0, 2**32 - 1), st.integers(low, high)).map(
        lambda t: np.random.default_rng(t[0]).bytes(t[1])
    )


def _periodic(period: st.SearchStrategy[bytes], max_len: int):
    return st.tuples(period, st.integers(1, max_len)).map(
        lambda t: (t[0] * (t[1] // len(t[0]) + 1))[: t[1]]
    )


_SEGMENTS = st.one_of(
    st.binary(max_size=64),
    # Byte runs: matches that overlap their own output.
    st.tuples(st.integers(0, 255), st.integers(1, 3000)).map(
        lambda t: bytes([t[0]]) * t[1]
    ),
    # Periods 1-17: every match length and every short offset.
    _periodic(st.binary(min_size=1, max_size=17), 2000),
    # Periods 4095-4097: repeats at, and just past, the window edge.
    st.tuples(_random(4095, 4097), st.integers(2, 3)).map(lambda t: t[0] * t[1]),
    # Random stretches: long miss streaks (the skip accelerator) and
    # literal runs of >= 128 bytes (2-byte uvarints).
    _random(200, 2000),
    # Literal runs of >= 16,384 bytes (3-byte uvarints).
    _random(16384, 16600),
    # Byte runs of 18k +- 20 bytes up to 64 KiB, then 0-40 other bytes: a
    # stretch of identical records that ends where the input nearly does.
    st.tuples(
        st.integers(0, 255),
        st.integers(1, 65536 // 18),
        st.integers(-20, 20),
        st.binary(max_size=40),
    ).map(lambda t: bytes([t[0]]) * max(18 * t[1] + t[2], 1) + t[3]),
    # A byte run, then within 4 KiB more of the same byte: the second run
    # reads back the hash-table state the first one left.
    st.tuples(
        st.integers(0, 255),
        st.integers(18, 3000),
        _random(0, 4000),
        st.integers(1, 3000),
    ).map(lambda t: bytes([t[0]]) * t[1] + t[2] + bytes([t[0]]) * t[3]),
    # Periods 1024 and 2048: stretches of 18-byte matches 1024 or 2048 back.
    st.tuples(
        st.sampled_from([1024, 2048]), st.integers(0, 2**32 - 1), st.integers(2, 3)
    ).map(lambda t: np.random.default_rng(t[1]).bytes(t[0]) * t[2]),
    # A period-17 repeat, then a byte run: matches 18 long and 17 back whose
    # source is not one byte value, ending at or near the run.
    st.tuples(
        st.binary(min_size=17, max_size=17),
        st.integers(1, 20),
        st.integers(-2, 2),
        st.integers(0, 255),
        st.integers(18, 200),
    ).map(
        lambda t: (t[0] * 30)[: 17 + 18 * t[1] + t[2]] + bytes([t[3]]) * t[4]
    ),
)

#: Inputs for the equivalence properties: concatenated segments, plain
#: binary up to 20 KB, and 0-5-byte inputs.
_INPUTS = st.one_of(
    st.lists(_SEGMENTS, min_size=1, max_size=4).map(b"".join),
    st.binary(max_size=20_000),
    st.binary(max_size=5),
)


class TestRoundtrip:
    @pytest.mark.parametrize(
        "data",
        [
            b"",
            b"z",
            b"ab",
            b"abc" * 2000,
            b"x" * 10000,
            bytes(range(256)) * 8,
            b"lzo is fast " * 100,
        ],
        ids=["empty", "one", "two", "cycle3", "run", "cycle256", "phrases"],
    )
    def test_basic(self, data):
        codec = LzrwCodec()
        assert codec.decompress(codec.compress(data)) == data

    def test_random_roundtrip(self, random_bytes):
        codec = LzrwCodec()
        assert codec.decompress(codec.compress(random_bytes)) == random_bytes

    def test_float_roundtrip(self, smooth_doubles):
        codec = LzrwCodec()
        assert codec.decompress(codec.compress(smooth_doubles)) == smooth_doubles

    @given(st.binary(max_size=3000))
    @settings(max_examples=60, deadline=None)
    def test_property_roundtrip(self, data):
        codec = LzrwCodec()
        assert codec.decompress(codec.compress(data)) == data


class TestReferenceEquivalence:
    """The table-driven encoder and one-pass decoder against the originals."""

    @given(_INPUTS)
    @settings(max_examples=120, deadline=None)
    def test_encoder_is_byte_identical(self, data):
        assert LzrwCodec().compress(data) == reference_compress(data)

    @given(
        _INPUTS,
        st.lists(st.tuples(st.integers(0), st.integers(1, 255)), max_size=3),
        st.one_of(st.none(), st.integers(0)),
    )
    @settings(max_examples=120, deadline=None)
    def test_decoder_matches_reference(self, data, flips, cut):
        blob = bytearray(reference_compress(data))
        for at, mask in flips:
            blob[at % len(blob)] ^= mask
        if cut is not None:
            del blob[cut % (len(blob) + 1) :]
        blob = bytes(blob)
        got = _decode_outcome(LzrwCodec().decompress, blob)
        assert got == reference_outcome(blob)
        if not flips and cut is None:
            assert got == data

    def test_planted_paths(self):
        # One deterministic input per path the properties aim at.
        rng = np.random.default_rng(14)
        window = rng.bytes(4096)
        cases = [
            b"",
            b"\x00" * 5,
            b"\x07" * 4096,
            b"ab" * 40 + b"abcdefghijklmnopq" * 30,
            window * 3,
            rng.bytes(300) + b"seed" * 20,
            rng.bytes(16400) + b"tail" * 20,
            b"\x09" * (18 * 100 + 7) + rng.bytes(20),
            b"\x05" * 500 + rng.bytes(1000) + b"\x05" * 500,
            rng.bytes(1024) * 3,
            (bytes(range(17)) * 4)[:53] + b"\xee" * 100,
        ]
        codec = LzrwCodec()
        for data in cases:
            blob = codec.compress(data)
            assert blob == reference_compress(data)
            assert codec.decompress(blob) == data


class TestProfile:
    def test_weaker_than_pyzlib_on_text(self):
        data = b"the entropy coder makes the difference " * 200
        lzo_size = len(LzrwCodec().compress(data))
        zlib_size = len(get_codec("pyzlib").compress(data))
        assert zlib_size < lzo_size

    def test_faster_than_pyzlib_on_mixed_data(self, noisy_doubles):
        import time

        lzo = LzrwCodec()
        zlib_like = get_codec("pyzlib")
        t0 = time.perf_counter()
        lzo.compress(noisy_doubles)
        t_lzo = time.perf_counter() - t0
        t0 = time.perf_counter()
        zlib_like.compress(noisy_doubles)
        t_zlib = time.perf_counter() - t0
        assert t_lzo < t_zlib

    def test_incompressible_expansion_bounded(self, random_bytes):
        assert len(LzrwCodec().compress(random_bytes)) <= len(random_bytes) + 10

    def test_window_limit_respected(self):
        # Matches farther than 4095 bytes back cannot be encoded; data
        # repeating at a longer period must still round-trip.
        block = np.random.default_rng(3).bytes(5000)
        data = block * 3
        codec = LzrwCodec()
        assert codec.decompress(codec.compress(data)) == data


class TestCorruptStreams:
    def test_unknown_mode(self):
        codec = LzrwCodec()
        blob = bytearray(codec.compress(b"hello hello hello hello"))
        blob[1] = 0x77
        with pytest.raises(CodecError, match="mode"):
            codec.decompress(bytes(blob))

    def test_truncated(self):
        codec = LzrwCodec()
        blob = codec.compress(b"abcabcabc" * 100)
        with pytest.raises(TruncationError):
            codec.decompress(blob[: len(blob) // 2])

    def test_invalid_offset_rejected(self):
        # Hand-craft a stream whose first record is a match reaching before
        # the start of the output: uvarint run=1, literal 'a', match with
        # offset 5 but only 1 byte produced so far.
        bad = (
            encode_uvarint(10)
            + bytes([1])  # compressed mode
            + encode_uvarint(1)
            + b"a"
            + bytes([0x00, 0x05])  # len=3, offset=5 > len(out)=1
        )
        with pytest.raises(CodecError, match="offset"):
            LzrwCodec().decompress(bad)

    def test_every_cut_and_flip_is_typed(self):
        # Every truncation and every byte flip (xor 0x01, 0x80, 0xFF) of
        # three streams: the decoder raises CodecError or returns what the
        # reference returns.  The streams hold 1- and 2-byte uvarints.
        rng = np.random.default_rng(2012)
        smooth = np.cumsum(rng.normal(0.0, 0.01, 64)) + 300.0
        streams = [
            b"lzo is fast " * 40,
            smooth.astype("<f8").tobytes(),
            rng.bytes(200) + b"match" * 8 + rng.bytes(40),
        ]
        codec = LzrwCodec()
        for data in streams:
            blob = codec.compress(data)
            cases = [blob[:cut] for cut in range(len(blob))]
            for at in range(len(blob)):
                for mask in (0x01, 0x80, 0xFF):
                    flipped = bytearray(blob)
                    flipped[at] ^= mask
                    cases.append(bytes(flipped))
            for case in cases:
                got = _decode_outcome(codec.decompress, case)
                assert got == reference_outcome(case)

    def test_bad_uvarints_are_typed(self):
        codec = LzrwCodec()
        # A uvarint cut short, in the header and in a record.
        with pytest.raises(TruncationError):
            codec.decompress(b"\x80")
        with pytest.raises(TruncationError):
            codec.decompress(encode_uvarint(20) + b"\x01" + b"\x80" * 4)
        # Ten continuation bytes: too long to be a uvarint at all.
        for blob in (
            b"\xff" * 10 + b"\x01",
            encode_uvarint(60) + b"\x01" + b"\xff" * 10 + b"\x01",
        ):
            with pytest.raises(CorruptionError) as err:
                codec.decompress(blob)
            assert not isinstance(err.value, TruncationError)

    @staticmethod
    def _stretch(n: int, repeats: int, tail: bytes = b"") -> bytes:
        """``b"a" * 19`` from a literal and a 1-back match, then ``repeats``
        identical records (run 0, 18 bytes, 1 back), then ``tail``."""
        body = b"\x01a\xf0\x01" + b"\x00\xf0\x01" * repeats + tail
        return encode_uvarint(n) + b"\x01" + body

    @pytest.mark.parametrize("k", [2, 3, 50])
    def test_stretch_past_the_size_is_rejected(self, k):
        # The k-th identical record ends one byte past n: the stretch stops
        # before it, and the loop raises on it, as the reference does.
        blob = self._stretch(19 + 18 * k - 1, k + 2)
        with pytest.raises(CorruptionError, match="overruns"):
            LzrwCodec().decompress(blob)
        assert reference_outcome(blob) is None

    def test_stretch_reaching_before_the_output_is_rejected(self):
        # Two literals and an 18-byte match, then records 21 back: the
        # stretch's first record reaches before the output starts.
        blob = encode_uvarint(150) + b"\x01\x02ab\xf0\x01" + b"\x00\xf0\x15" * 8
        with pytest.raises(CorruptionError, match="offset"):
            LzrwCodec().decompress(blob)
        assert reference_outcome(blob) is None

    @pytest.mark.parametrize("k", [1, 2, 50])
    def test_stretch_ending_at_the_size_is_accepted(self, k):
        # A stretch ends exactly at n; the bytes after it, more identical
        # records and junk, are ignored, as by the reference.
        n = 19 + 18 * k
        blob = self._stretch(n, k + 3, b"junk")
        assert LzrwCodec().decompress(blob) == b"a" * n
        assert reference_decompress(blob) == b"a" * n

    def test_oversized_claim_rejected_before_allocating(self):
        bad = encode_uvarint(2**40) + bytes([1]) + bytes(10)
        tracemalloc.start()
        try:
            with pytest.raises(TruncationError):
                LzrwCodec().decompress(bad)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_size_bound_admits_densest_stream(self):
        # The densest body: one literal, then nothing but 18-byte matches
        # at 3 bytes per record.  It sits just inside the 6x bound.
        for k in (0, 1, 100):
            n = 19 + 18 * k
            body = b"\x01a\xf0\x01" + b"\x00\xf0\x01" * k
            assert n <= 6 * len(body)
            blob = encode_uvarint(n) + b"\x01" + body
            assert LzrwCodec().decompress(blob) == b"a" * n
            assert reference_decompress(blob) == b"a" * n
