"""Tests for repro.util.checksum against the zlib reference implementation."""

from __future__ import annotations

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.checksum import adler32, crc32


class TestCrc32:
    @pytest.mark.parametrize(
        "data",
        [b"", b"a", b"hello world", bytes(range(256)), b"\x00" * 1000],
    )
    def test_matches_zlib(self, data):
        assert crc32(data) == zlib.crc32(data)

    def test_incremental_matches(self):
        data = b"the quick brown fox"
        part = crc32(data[:7])
        assert crc32(data[7:], part) == zlib.crc32(data)

    def test_ndarray_input(self):
        arr = np.arange(100, dtype=np.uint8)
        assert crc32(arr) == zlib.crc32(arr.tobytes())

    @given(st.binary(max_size=512))
    @settings(max_examples=100, deadline=None)
    def test_property_matches_zlib(self, data):
        assert crc32(data) == zlib.crc32(data)


class TestAdler32:
    @pytest.mark.parametrize(
        "data",
        [
            b"",
            b"a",
            b"Wikipedia",
            bytes(range(256)) * 10,
            b"\xff" * 100000,
            b"\xff" * (3 << 20),  # the largest sum every block can reach
        ],
    )
    def test_matches_zlib(self, data):
        assert adler32(data) == zlib.adler32(data)

    def test_incremental_matches(self):
        data = bytes(range(256)) * 100
        part = adler32(data[:1000])
        assert adler32(data[1000:], part) == zlib.adler32(data)

    def test_large_block_boundary(self):
        # Exercises the multi-block accumulator path.
        data = np.random.default_rng(0).integers(
            0, 256, (1 << 20) + 17, dtype=np.uint8
        ).tobytes()
        assert adler32(data) == zlib.adler32(data)

    @given(st.binary(max_size=2048))
    @settings(max_examples=100, deadline=None)
    def test_property_matches_zlib(self, data):
        assert adler32(data) == zlib.adler32(data)

    @pytest.mark.parametrize(
        "size",
        [0, 1, 4095, 4096, 4097, 65535, 65536, 65537, (1 << 20) + 17],
    )
    @pytest.mark.parametrize(
        "value", [0, 1, 0xFFF0FFF0, 0xFFF1FFF1, 0xFFFFFFFF]
    )
    def test_block_and_slab_edges(self, size, value):
        # Sizes around the 4,096-byte block and the 64 KiB slab, from
        # every kind of incoming state, reduced or not.
        data = np.random.default_rng(size).integers(
            0, 256, size, dtype=np.uint8
        ).tobytes()
        assert adler32(data, value) == zlib.adler32(data, value)

    def test_ndarray_input(self):
        arr = np.random.default_rng(5).integers(0, 256, 70000, dtype=np.uint8)
        assert adler32(arr) == zlib.adler32(arr.tobytes())
        assert adler32(arr.reshape(7, 10000)) == zlib.adler32(arr.tobytes())
