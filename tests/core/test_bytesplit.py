"""Tests for byte-matrix views and the high/low split."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bytesplit import split_bytes, values_to_byte_matrix
from tests.oracles import byte_matrix_to_values, combine_bytes


class TestByteMatrix:
    def test_big_endian_column_order(self):
        # 1.0 == 0x3FF0000000000000: column 0 must be 0x3F, column 1 0xF0.
        matrix = values_to_byte_matrix(np.array([1.0]).tobytes())
        assert matrix[0, 0] == 0x3F
        assert matrix[0, 1] == 0xF0
        assert np.all(matrix[0, 2:] == 0)

    def test_sign_bit_in_column_zero(self):
        matrix = values_to_byte_matrix(np.array([-1.0]).tobytes())
        assert matrix[0, 0] == 0xBF

    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        data = rng.normal(0, 1e10, 1000).astype("<f8").tobytes()
        matrix = values_to_byte_matrix(data)
        assert byte_matrix_to_values(matrix) == data

    def test_nan_payload_preserved(self):
        patterns = np.array(
            [0x7FF8DEADBEEF0001, 0xFFF0000000000000, 0x0000000000000001],
            dtype=np.uint64,
        )
        data = patterns.tobytes()
        assert byte_matrix_to_values(values_to_byte_matrix(data)) == data

    def test_accepts_ndarray_input(self):
        arr = np.arange(10, dtype="<f8")
        m1 = values_to_byte_matrix(arr)
        m2 = values_to_byte_matrix(arr.tobytes())
        assert np.array_equal(m1, m2)

    def test_word_size_4(self):
        data = np.arange(6, dtype="<f4").tobytes()
        matrix = values_to_byte_matrix(data, word_bytes=4)
        assert matrix.shape == (6, 4)
        assert byte_matrix_to_values(matrix) == data

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError):
            values_to_byte_matrix(b"1234567")  # 7 bytes

    def test_bad_matrix_rejected(self):
        with pytest.raises(ValueError):
            byte_matrix_to_values(np.zeros((4, 8), dtype=np.int16))

    @given(st.binary(max_size=800).filter(lambda b: len(b) % 8 == 0))
    @settings(max_examples=50, deadline=None)
    def test_property_roundtrip(self, data):
        assert byte_matrix_to_values(values_to_byte_matrix(data)) == data


class TestSplitCombine:
    def test_split_widths(self):
        matrix = values_to_byte_matrix(np.arange(16, dtype="<f8").tobytes())
        high, low = split_bytes(matrix, 2)
        assert high.shape == (16, 2)
        assert low.shape == (16, 6)

    def test_combine_inverts_split(self):
        rng = np.random.default_rng(1)
        matrix = rng.integers(0, 256, (100, 8), dtype=np.uint8)
        for width in [1, 2, 3, 7, 8]:
            high, low = split_bytes(matrix, width)
            assert np.array_equal(combine_bytes(high, low), matrix)

    def test_invalid_width(self):
        matrix = np.zeros((4, 8), dtype=np.uint8)
        with pytest.raises(ValueError):
            split_bytes(matrix, 0)
        with pytest.raises(ValueError):
            split_bytes(matrix, 9)

    def test_combine_row_mismatch(self):
        with pytest.raises(ValueError):
            combine_bytes(
                np.zeros((3, 2), dtype=np.uint8), np.zeros((4, 6), dtype=np.uint8)
            )

    def test_exponent_lands_in_high_bytes(self):
        """Sanity: the float64 exponent is fully inside the 2 high bytes."""
        vals = np.array([1.5, 3.7, 1e100, 1e-100])
        matrix = values_to_byte_matrix(vals.tobytes())
        high, _ = split_bytes(matrix, 2)
        # Exponent = bits 1..11 -> bytes 0 and the top nibble of byte 1.
        exponents = ((high[:, 0].astype(int) & 0x7F) << 4) | (high[:, 1] >> 4)
        _, expected = np.frexp(vals)
        assert np.array_equal(exponents - 1022, expected)
