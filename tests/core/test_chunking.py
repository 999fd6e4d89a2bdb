"""Tests for the chunker."""

from __future__ import annotations

import pytest

from repro.core.chunking import Chunker, DEFAULT_CHUNK_BYTES


class TestChunker:
    def test_default_is_three_megabytes(self):
        assert DEFAULT_CHUNK_BYTES == 3 * 1024 * 1024
        assert Chunker().chunk_bytes == DEFAULT_CHUNK_BYTES

    def test_even_split(self):
        chunker = Chunker(chunk_bytes=64, word_bytes=8)
        chunks, tail = chunker.split(b"\x00" * 192)
        assert [len(c.data) for c in chunks] == [64, 64, 64]
        assert tail == b""
        assert [c.offset for c in chunks] == [0, 64, 128]
        assert [c.index for c in chunks] == [0, 1, 2]

    def test_ragged_last_chunk(self):
        chunker = Chunker(chunk_bytes=64, word_bytes=8)
        chunks, tail = chunker.split(b"\x01" * 100)
        assert [len(c.data) for c in chunks] == [64, 32]
        assert tail == b"\x01" * 4

    def test_tail_only(self):
        chunker = Chunker(chunk_bytes=64, word_bytes=8)
        chunks, tail = chunker.split(b"abc")
        assert chunks == []
        assert tail == b"abc"

    def test_empty(self):
        chunks, tail = Chunker(64, 8).split(b"")
        assert chunks == [] and tail == b""

    def test_chunk_size_rounded_to_words(self):
        chunker = Chunker(chunk_bytes=70, word_bytes=8)
        assert chunker.chunk_bytes == 64

    def test_validation(self):
        with pytest.raises(ValueError):
            Chunker(chunk_bytes=4, word_bytes=8)
        with pytest.raises(ValueError):
            Chunker(chunk_bytes=64, word_bytes=0)

    def test_chunks_reassemble(self):
        data = bytes(range(256)) * 5
        chunker = Chunker(chunk_bytes=96, word_bytes=8)
        chunks, tail = chunker.split(data)
        assert b"".join(c.data for c in chunks) + tail == data
