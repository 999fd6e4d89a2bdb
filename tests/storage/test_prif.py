"""Tests for the PRIF seekable file format (repro.storage)."""

from __future__ import annotations

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compressors import CodecError
from repro.core import IndexReusePolicy, PrimacyConfig
from repro.core.linearize import Linearization
from repro.datasets import generate_bytes
from repro.storage import PrimacyFileReader, PrimacyFileWriter
from repro.storage.format import (
    decode_footer,
    decode_header,
    encode_footer,
    encode_header,
)


@pytest.fixture(scope="module")
def payload() -> bytes:
    return generate_bytes("obs_temp", 20000, seed=4) + b"QX"


def _roundtrip(payload: bytes, config: PrimacyConfig) -> PrimacyFileReader:
    buf = io.BytesIO()
    with PrimacyFileWriter(buf, config) as writer:
        writer.write(payload)
    return PrimacyFileReader(io.BytesIO(buf.getvalue()))


class TestHeaderFooter:
    def test_header_roundtrip(self):
        config = PrimacyConfig(
            codec="pylzo",
            chunk_bytes=64 * 1024,
            word_bytes=4,
            high_bytes=1,
            linearization=Linearization.ROW,
            index_policy=IndexReusePolicy.CORRELATED,
            checksum=False,
        )
        decoded, pos, planned = decode_header(encode_header(config))
        assert decoded == config
        assert pos == len(encode_header(config))
        assert planned is False

    def test_header_planned_flag_roundtrip(self):
        config = PrimacyConfig()
        decoded, pos, planned = decode_header(encode_header(config, planned=True))
        assert decoded == config
        assert planned is True
        assert pos == len(encode_header(config, planned=True))

    def test_header_rejects_garbage(self):
        with pytest.raises(CodecError):
            decode_header(b"NOPE" + bytes(20))

    def test_footer_roundtrip(self):
        from repro.storage.format import ChunkEntry

        chunks = [
            ChunkEntry(offset=30, length=100, n_values=8, inline_index=True, index_base=0),
            ChunkEntry(offset=131, length=50, n_values=4, inline_index=False, index_base=0),
        ]
        blob = encode_footer(chunks, b"tl", 99)
        out_chunks, tail, total = decode_footer(blob)
        assert out_chunks == chunks
        assert tail == b"tl"
        assert total == 99


class TestRoundtrip:
    @pytest.mark.parametrize("policy", list(IndexReusePolicy))
    def test_read_all(self, payload, policy):
        reader = _roundtrip(
            payload, PrimacyConfig(chunk_bytes=16 * 1024, index_policy=policy)
        )
        assert reader.read_all() == payload

    def test_streaming_write_in_pieces(self, payload):
        buf = io.BytesIO()
        with PrimacyFileWriter(buf, PrimacyConfig(chunk_bytes=16 * 1024)) as w:
            for i in range(0, len(payload), 1013):
                w.write(payload[i : i + 1013])
        reader = PrimacyFileReader(io.BytesIO(buf.getvalue()))
        assert reader.read_all() == payload

    def test_write_matches_bulk(self, payload):
        """Streaming in pieces and in one call produce identical files."""
        cfg = PrimacyConfig(chunk_bytes=16 * 1024)
        a = io.BytesIO()
        with PrimacyFileWriter(a, cfg) as w:
            w.write(payload)
        b = io.BytesIO()
        with PrimacyFileWriter(b, cfg) as w:
            for i in range(0, len(payload), 333):
                w.write(payload[i : i + 333])
        assert a.getvalue() == b.getvalue()

    def test_empty_file(self):
        buf = io.BytesIO()
        with PrimacyFileWriter(buf) as w:
            pass
        reader = PrimacyFileReader(io.BytesIO(buf.getvalue()))
        assert reader.read_all() == b""
        assert reader.n_values == 0

    def test_tail_only_file(self):
        buf = io.BytesIO()
        with PrimacyFileWriter(buf) as w:
            w.write(b"abc")
        reader = PrimacyFileReader(io.BytesIO(buf.getvalue()))
        assert reader.read_all() == b"abc"

    def test_float32_words(self):
        data = np.arange(5000, dtype="<f4").tobytes()
        cfg = PrimacyConfig(chunk_bytes=8 * 1024, word_bytes=4, high_bytes=1)
        reader = _roundtrip(data, cfg)
        assert reader.read_all() == data
        assert reader.read_values(100, 50) == data[400:600]

    def test_writer_on_path(self, tmp_path, payload):
        path = tmp_path / "data.pri"
        with PrimacyFileWriter(path, PrimacyConfig(chunk_bytes=16 * 1024)) as w:
            w.write(payload)
        with PrimacyFileReader(path) as reader:
            assert reader.read_all() == payload

    @pytest.mark.parametrize(
        "config, workers, match",
        [
            # The PRIF header cannot record bit-plane ISOBAR: such a file
            # would not read back.
            (PrimacyConfig(isobar_granularity="bit"), None, "isobar_granularity"),
            (PrimacyConfig(index_policy=IndexReusePolicy.FIRST_CHUNK), 2, "PER_CHUNK"),
        ],
        ids=["bit-isobar", "pipelined-reuse-chain"],
    )
    def test_refused_before_any_file(self, tmp_path, config, workers, match):
        with pytest.raises(ValueError, match=match):
            PrimacyFileWriter(tmp_path / "data.prif", config, workers=workers)
        assert list(tmp_path.iterdir()) == []

    def test_write_after_close_rejected(self):
        w = PrimacyFileWriter(io.BytesIO())
        w.close()
        with pytest.raises(ValueError):
            w.write(b"x")

    def test_writer_stats(self, payload):
        buf = io.BytesIO()
        with PrimacyFileWriter(buf, PrimacyConfig(chunk_bytes=16 * 1024)) as w:
            w.write(payload)
        assert w.stats.original_bytes == len(payload)
        assert w.stats.container_bytes == len(buf.getvalue()) - _footer_len(buf)
        assert w.stats.compression_ratio > 1.0


def _footer_len(buf: io.BytesIO) -> int:
    raw = buf.getvalue()
    return int.from_bytes(raw[-16:-8], "little") + 16


class TestRandomAccess:
    @pytest.mark.parametrize("policy", list(IndexReusePolicy))
    def test_ranges_match_source(self, payload, policy):
        reader = _roundtrip(
            payload, PrimacyConfig(chunk_bytes=8 * 1024, index_policy=policy)
        )
        word = 8
        rng = np.random.default_rng(0)
        for _ in range(25):
            start = int(rng.integers(0, reader.n_values))
            count = int(rng.integers(0, min(3000, reader.n_values - start)))
            assert reader.read_values(start, count) == payload[
                start * word : (start + count) * word
            ]

    def test_whole_range(self, payload):
        reader = _roundtrip(payload, PrimacyConfig(chunk_bytes=8 * 1024))
        n = reader.n_values
        assert reader.read_values(0, n) == payload[: n * 8]

    def test_single_value(self, payload):
        reader = _roundtrip(payload, PrimacyConfig(chunk_bytes=8 * 1024))
        assert reader.read_values(777, 1) == payload[777 * 8 : 778 * 8]

    def test_cross_chunk_boundary(self, payload):
        reader = _roundtrip(payload, PrimacyConfig(chunk_bytes=8 * 1024))
        per_chunk = 8 * 1024 // 8
        start = per_chunk - 3
        got = reader.read_values(start, 6)
        assert got == payload[start * 8 : (start + 6) * 8]

    def test_out_of_range_rejected(self, payload):
        reader = _roundtrip(payload, PrimacyConfig(chunk_bytes=8 * 1024))
        with pytest.raises(ValueError):
            reader.read_values(reader.n_values, 1)
        with pytest.raises(ValueError):
            reader.read_values(-1, 1)

    def test_zero_count(self, payload):
        reader = _roundtrip(payload, PrimacyConfig(chunk_bytes=8 * 1024))
        assert reader.read_values(5, 0) == b""

    def test_reuse_chain_resolution_without_prior_reads(self, payload):
        """Seek straight into the middle of a FIRST_CHUNK reuse chain."""
        reader = _roundtrip(
            payload,
            PrimacyConfig(
                chunk_bytes=4 * 1024,
                index_policy=IndexReusePolicy.FIRST_CHUNK,
            ),
        )
        # Last chunk depends on every predecessor's extensions.
        last = reader.n_chunks - 1
        entry = reader.chunk_entries()[last]
        start = reader.n_values - entry.n_values
        got = reader.read_values(start, entry.n_values)
        assert got == payload[start * 8 : (start + entry.n_values) * 8]

    @given(
        start_frac=st.floats(0, 0.99),
        count=st.integers(0, 2000),
        policy=st.sampled_from(list(IndexReusePolicy)),
    )
    @settings(max_examples=20, deadline=None)
    def test_property_random_access(self, payload, start_frac, count, policy):
        reader = _roundtrip(
            payload, PrimacyConfig(chunk_bytes=8 * 1024, index_policy=policy)
        )
        start = int(start_frac * reader.n_values)
        count = min(count, reader.n_values - start)
        assert reader.read_values(start, count) == payload[
            start * 8 : (start + count) * 8
        ]


class TestOversizedHeader:
    def test_header_larger_than_probe_window_reads_incrementally(self, payload):
        """A header past the 4 KiB probe must be re-read, not rejected."""
        from repro.compressors import register_codec
        from repro.compressors.deflate import DeflateCodec
        from repro.storage.reader import _HEADER_PROBE_BYTES

        long_name = "zlib-alias-" + "x" * (_HEADER_PROBE_BYTES + 100)

        @register_codec
        class _LongNameCodec(DeflateCodec):
            name = long_name

        try:
            buf = io.BytesIO()
            cfg = PrimacyConfig(codec=long_name, chunk_bytes=16 * 1024)
            with PrimacyFileWriter(buf, cfg) as w:
                w.write(payload)
            reader = PrimacyFileReader(io.BytesIO(buf.getvalue()))
            assert reader._header_len > _HEADER_PROBE_BYTES
            assert reader.read_all() == payload
        finally:
            # Don't leak the synthetic codec into the global registry.
            from repro.compressors.base import _REGISTRY

            _REGISTRY.pop(long_name, None)


class TestCorruption:
    def test_missing_end_marker(self, payload):
        buf = io.BytesIO()
        with PrimacyFileWriter(buf, PrimacyConfig(chunk_bytes=16 * 1024)) as w:
            w.write(payload)
        raw = bytearray(buf.getvalue())
        raw[-2] ^= 0xFF
        with pytest.raises(CodecError):
            PrimacyFileReader(io.BytesIO(bytes(raw)))

    def test_truncated_file(self, payload):
        buf = io.BytesIO()
        with PrimacyFileWriter(buf, PrimacyConfig(chunk_bytes=16 * 1024)) as w:
            w.write(payload)
        with pytest.raises(CodecError):
            PrimacyFileReader(io.BytesIO(buf.getvalue()[:10]))

    def test_corrupt_chunk_detected_by_checksum(self, payload):
        buf = io.BytesIO()
        with PrimacyFileWriter(buf, PrimacyConfig(chunk_bytes=16 * 1024)) as w:
            w.write(payload)
        raw = bytearray(buf.getvalue())
        entry = PrimacyFileReader(io.BytesIO(bytes(raw))).chunk_entries()[1]
        raw[entry.offset + entry.length // 2] ^= 0xFF
        reader = PrimacyFileReader(io.BytesIO(bytes(raw)))
        with pytest.raises(CodecError):
            reader.read_all()
