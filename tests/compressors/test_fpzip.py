"""Tests for the fpzip-style Lorenzo-predictor codec."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compressors import CodecError
from repro.compressors.fpzip import (
    FpzipCodec,
    float_to_ordered,
    ordered_to_float,
)


class TestOrderMap:
    def test_bijective_on_patterns(self):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 1 << 63, 10000, dtype=np.uint64)
        bits = np.concatenate([bits, bits | np.uint64(1 << 63)])
        vals = bits.view("<f8")
        assert ordered_to_float(float_to_ordered(vals)).tobytes() == vals.tobytes()

    def test_order_preserving(self):
        vals = np.array([-np.inf, -1e10, -1.0, -0.0, 0.0, 1e-300, 1.0, np.inf])
        ordered = float_to_ordered(vals)
        # -0.0 and 0.0 are adjacent integers; everything else strictly sorted.
        assert np.all(np.diff(ordered.astype(np.float64)) >= 0)

    def test_special_values_roundtrip(self):
        vals = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324])
        assert ordered_to_float(float_to_ordered(vals)).tobytes() == vals.tobytes()


class TestRoundtrip:
    @pytest.mark.parametrize("shape", [None, (64,), (16, 16), (8, 8, 8)])
    def test_shapes(self, shape):
        rng = np.random.default_rng(1)
        data = rng.normal(100, 1, 4096).astype("<f8").tobytes()
        codec = FpzipCodec(shape=shape)
        assert codec.decompress(codec.compress(data)) == data

    def test_empty_and_tail(self):
        codec = FpzipCodec()
        assert codec.decompress(codec.compress(b"")) == b""
        data = np.arange(5, dtype="<f8").tobytes() + b"AB"
        assert codec.decompress(codec.compress(data)) == data

    def test_data_not_multiple_of_field(self):
        # 100 values with 16x16 fields: 100 < 256, so everything goes to the
        # 1-D remainder path.
        data = np.random.default_rng(2).normal(0, 1, 100).astype("<f8").tobytes()
        codec = FpzipCodec(shape=(16, 16))
        assert codec.decompress(codec.compress(data)) == data

    @given(st.lists(st.floats(width=64, allow_nan=False), max_size=150))
    @settings(max_examples=50, deadline=None)
    def test_property_roundtrip(self, values):
        data = np.array(values, dtype="<f8").tobytes()
        codec = FpzipCodec()
        assert codec.decompress(codec.compress(data)) == data

    @given(st.binary(max_size=1024))
    @settings(max_examples=40, deadline=None)
    def test_property_arbitrary_bytes(self, data):
        codec = FpzipCodec()
        assert codec.decompress(codec.compress(data)) == data


class TestPredictor:
    def test_smooth_2d_field_compresses(self):
        # Lossless float compression of a smooth analytic field: the Lorenzo
        # residuals drop ~2 bytes of each double (CR ~1.3, like real fpzip
        # in lossless mode).
        x, y = np.meshgrid(np.linspace(0, 4, 64), np.linspace(0, 4, 64))
        field = np.sin(x) * np.cos(y) + 2.5
        data = field.astype("<f8").tobytes()
        codec = FpzipCodec(shape=(64, 64))
        assert len(codec.compress(data)) < len(data) * 0.8

    def test_quantized_smooth_field_compresses_hard(self):
        # With mantissas rounded to 20 bits the residuals nearly vanish.
        x, y = np.meshgrid(np.linspace(0, 4, 64), np.linspace(0, 4, 64))
        field = np.sin(x) * np.cos(y) + 2.5
        m, e = np.frexp(field)
        field = np.ldexp(np.round(m * 2**20) / 2**20, e)
        data = field.astype("<f8").tobytes()
        codec = FpzipCodec(shape=(64, 64))
        assert len(codec.compress(data)) < len(data) / 2

    def test_2d_predictor_beats_1d_on_2d_data(self):
        x, y = np.meshgrid(np.linspace(0, 9, 64), np.linspace(0, 9, 64))
        field = (np.sin(x) + np.cos(3 * y)) * 100
        data = np.ascontiguousarray(field, dtype="<f8").tobytes()
        size_2d = len(FpzipCodec(shape=(64, 64)).compress(data))
        size_1d = len(FpzipCodec().compress(data))
        assert size_2d < size_1d

    def test_permutation_destroys_prediction(self):
        vals = np.cumsum(np.random.default_rng(3).normal(0, 0.01, 8192)) + 50
        data = vals.astype("<f8").tobytes()
        rng = np.random.default_rng(4)
        permuted = vals[rng.permutation(vals.size)].astype("<f8").tobytes()
        codec = FpzipCodec()
        assert len(codec.compress(permuted)) > len(codec.compress(data))


class TestValidation:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            FpzipCodec(shape=(0, 4))
        with pytest.raises(ValueError):
            FpzipCodec(shape=(2, 2, 2, 2, 2))

    def test_payload_mismatch_rejected(self):
        codec = FpzipCodec()
        blob = bytearray(codec.compress(np.arange(64, dtype="<f8").tobytes()))
        with pytest.raises(CodecError):
            codec.decompress(bytes(blob[: len(blob) - 16]))

    def test_zero_dimension_rejected(self):
        # Size header (512), ndim 1, shape (64,): a zero dimension used to
        # divide by zero.
        codec = FpzipCodec()
        blob = codec.compress(np.arange(64, dtype="<f8").tobytes())
        assert blob[:4] == b"\x80\x04\x01\x40"
        with pytest.raises(CodecError):
            codec.decompress(blob[:3] + b"\x00" + blob[4:])
