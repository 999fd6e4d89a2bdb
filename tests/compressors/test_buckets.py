"""Tests for bucketed integer coding."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compressors import CodecError
from repro.compressors.base import TruncationError
from repro.compressors._buckets import (
    MAX_BUCKET,
    _bucket_codes,
    decode_bucketed,
    encode_bucketed,
)


class TestBucketCodes:
    def test_zero_gets_code_zero(self):
        assert _bucket_codes(np.array([0]))[0] == 0

    @pytest.mark.parametrize("value,code", [(1, 1), (2, 2), (3, 2), (4, 3), (255, 8), (256, 9), (1023, 10), (1024, 11)])
    def test_bit_length_codes(self, value, code):
        assert _bucket_codes(np.array([value]))[0] == code

    def test_exact_powers_of_two(self):
        values = np.array([1 << k for k in range(40)])
        codes = _bucket_codes(values)
        assert np.array_equal(codes, np.arange(1, 41))

    def test_powers_of_two_minus_one(self):
        values = np.array([(1 << k) - 1 for k in range(1, 40)])
        codes = _bucket_codes(values)
        assert np.array_equal(codes, np.arange(1, 40))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            _bucket_codes(np.array([-1]))

    def test_too_large_rejected(self):
        with pytest.raises(ValueError):
            _bucket_codes(np.array([1 << (MAX_BUCKET + 1)]))


class TestRoundtrip:
    def test_empty(self):
        blob = encode_bucketed(np.zeros(0, np.int64))
        out, pos = decode_bucketed(blob)
        assert out.size == 0 and pos == len(blob)

    def test_mixed_values(self):
        values = np.array([0, 1, 2, 3, 100, 65535, 65536, 12345678, 0, 7])
        blob = encode_bucketed(values)
        out, pos = decode_bucketed(blob)
        assert pos == len(blob)
        assert np.array_equal(out, values)

    def test_all_zeros(self):
        values = np.zeros(1000, np.int64)
        blob = encode_bucketed(values)
        out, _ = decode_bucketed(blob)
        assert np.array_equal(out, values)

    def test_sequential_blobs(self):
        a = np.array([5, 10, 15])
        b = np.array([1000, 2000])
        blob = encode_bucketed(a) + encode_bucketed(b)
        out_a, pos = decode_bucketed(blob)
        out_b, pos = decode_bucketed(blob, pos)
        assert np.array_equal(out_a, a)
        assert np.array_equal(out_b, b)
        assert pos == len(blob)

    def test_truncated_rejected(self):
        blob = encode_bucketed(np.arange(1000))
        with pytest.raises((CodecError, ValueError)):
            decode_bucketed(blob[: len(blob) // 2])

    def test_every_cut_is_a_truncation_error(self):
        # Cut inside the count, the symbol block, the extras length or
        # the extras themselves: the buffer ran out, whichever it was.
        blob = encode_bucketed(np.arange(1, 300) * 37)
        for cut in range(len(blob)):
            with pytest.raises(TruncationError):
                decode_bucketed(blob[:cut])

    @given(st.lists(st.integers(0, 2**39), max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_property_roundtrip(self, values):
        arr = np.array(values, dtype=np.int64)
        out, _ = decode_bucketed(encode_bucketed(arr))
        assert np.array_equal(out, arr)

    def test_compresses_skewed_values(self):
        # Mostly-small values should cost little more than 1-2 bits each.
        rng = np.random.default_rng(0)
        values = rng.zipf(2.0, 20000).clip(0, 1 << 30)
        blob = encode_bucketed(values)
        assert len(blob) < values.size  # < 8 bits per value
