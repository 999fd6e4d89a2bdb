"""Tests for the public chunk-level API (compress_chunk / decompress_chunk).

This is the interface the storage layer builds on; it must be usable
directly by downstream code that wants custom chunk management.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compressors import CodecError
from repro.core import IndexReusePolicy, PrimacyCompressor, PrimacyConfig
from repro.core.primacy import chunk_record_index_section
from repro.datasets import generate_bytes


@pytest.fixture
def chunks():
    data = generate_bytes("obs_temp", 6144, seed=31)
    third = len(data) // 3
    return [data[i * third : (i + 1) * third] for i in range(3)]


class TestCompressChunk:
    def test_stateless_roundtrip(self, chunks):
        pc = PrimacyCompressor(PrimacyConfig(chunk_bytes=1 << 20))
        record, stats, state = pc.compress_chunk(chunks[0])
        assert stats.n_values == len(chunks[0]) // 8
        restored, index = pc.decompress_chunk(record)
        assert restored == chunks[0]
        assert index.n_unique == stats.n_unique

    def test_state_threading_with_reuse(self, chunks):
        pc = PrimacyCompressor(
            PrimacyConfig(
                chunk_bytes=1 << 20,
                index_policy=IndexReusePolicy.FIRST_CHUNK,
            )
        )
        state = None
        records = []
        for chunk in chunks:
            record, stats, state = pc.compress_chunk(chunk, state)
            records.append(record)
        # First inline, rest reused.
        inline_flags = [
            chunk_record_index_section(r, 2)[0] for r in records
        ]
        assert inline_flags == [True, False, False]
        # Decode the chain.
        current = None
        out = b""
        for record in records:
            chunk, current = pc.decompress_chunk(record, current)
            out += chunk
        assert out == b"".join(chunks)

    def test_reused_record_requires_index(self, chunks):
        pc = PrimacyCompressor(
            PrimacyConfig(
                chunk_bytes=1 << 20,
                index_policy=IndexReusePolicy.FIRST_CHUNK,
            )
        )
        _, _, state = pc.compress_chunk(chunks[0])
        record, _, _ = pc.compress_chunk(chunks[1], state)
        with pytest.raises(CodecError, match="index"):
            pc.decompress_chunk(record, None)

    def test_unaligned_chunk_rejected(self):
        pc = PrimacyCompressor()
        with pytest.raises(ValueError, match="whole words"):
            pc.compress_chunk(b"1234567")


class TestPreparedChunks:
    """prepare_chunk + encode_prepared: compress_chunk in two halves."""

    @pytest.mark.parametrize("codec", ["pyzlib", "pylzo", "null"])
    def test_halves_make_the_compress_chunk_record(self, chunks, codec):
        base = PrimacyConfig(chunk_bytes=1 << 20)
        prepared = PrimacyCompressor(base).prepare_chunk(chunks[0])
        comp = PrimacyCompressor(PrimacyConfig(codec=codec, chunk_bytes=1 << 20))
        record, stats = comp.encode_prepared(prepared)
        expect, expect_stats, _ = comp.compress_chunk(chunks[0])
        assert record == expect
        assert stats.total_out == expect_stats.total_out
        assert comp.decompress_chunk(record)[0] == chunks[0]

    def test_other_configuration_rejected(self, chunks):
        prepared = PrimacyCompressor(PrimacyConfig()).prepare_chunk(chunks[0])
        with pytest.raises(ValueError):
            PrimacyCompressor(PrimacyConfig(high_bytes=1)).encode_prepared(prepared)

    def test_unaligned_chunk_rejected(self):
        with pytest.raises(ValueError):
            PrimacyCompressor().prepare_chunk(b"\x00" * 12)


class TestIndexSectionParser:
    def test_inline_section(self, chunks):
        pc = PrimacyCompressor(PrimacyConfig(chunk_bytes=1 << 20))
        record, stats, _ = pc.compress_chunk(chunks[0])
        inline, index, n_values = chunk_record_index_section(record, 2)
        assert inline is True
        assert n_values == stats.n_values
        assert index.n_unique == stats.n_unique

    def test_extension_section(self, chunks):
        pc = PrimacyCompressor(
            PrimacyConfig(
                chunk_bytes=1 << 20,
                index_policy=IndexReusePolicy.FIRST_CHUNK,
            )
        )
        _, _, state = pc.compress_chunk(chunks[0])
        record, stats, _ = pc.compress_chunk(chunks[1], state)
        inline, extension, n_values = chunk_record_index_section(record, 2)
        assert inline is False
        assert isinstance(extension, np.ndarray)
        assert n_values == stats.n_values

    def test_truncated_extension_rejected(self, chunks):
        pc = PrimacyCompressor(
            PrimacyConfig(
                chunk_bytes=1 << 20,
                index_policy=IndexReusePolicy.FIRST_CHUNK,
            )
        )
        _, _, state = pc.compress_chunk(chunks[0])
        record, _, _ = pc.compress_chunk(chunks[1], state)
        inline, ext, _ = chunk_record_index_section(record, 2)
        if not inline and ext.size:
            with pytest.raises((CodecError, ValueError)):
                chunk_record_index_section(record[: 4 + 1], 2)
