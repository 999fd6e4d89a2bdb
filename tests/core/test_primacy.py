"""End-to-end tests for the PRIMACY compressor and container."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compressors import CodecError, evaluate_codec, get_codec
from repro.compressors.base import CorruptionError, TruncationError
from repro.core import (
    IndexReusePolicy,
    PrimacyCodec,
    PrimacyCompressor,
    PrimacyConfig,
)
from repro.core.linearize import Linearization
from repro.core.primacy import parse_container_header, split_container
from repro.datasets import generate_bytes


@pytest.fixture
def compressor():
    return PrimacyCompressor(PrimacyConfig(chunk_bytes=64 * 1024))


class TestRoundtrip:
    @pytest.mark.parametrize(
        "payload",
        [
            b"",
            b"1234567",  # tail only
            np.arange(1, dtype="<f8").tobytes(),
            np.arange(100, dtype="<f8").tobytes() + b"xy",
        ],
        ids=["empty", "tail-only", "one-value", "values+tail"],
    )
    def test_edge_payloads(self, compressor, payload):
        out, _ = compressor.compress(payload)
        assert compressor.decompress(out) == payload

    def test_multi_chunk(self, smooth_doubles):
        compressor = PrimacyCompressor(PrimacyConfig(chunk_bytes=16 * 1024))
        out, stats = compressor.compress(smooth_doubles)
        assert len(stats.chunks) == len(smooth_doubles) // (16 * 1024)
        assert compressor.decompress(out) == smooth_doubles

    @pytest.mark.parametrize("policy", list(IndexReusePolicy))
    def test_index_policies(self, smooth_doubles, policy):
        compressor = PrimacyCompressor(
            PrimacyConfig(chunk_bytes=16 * 1024, index_policy=policy)
        )
        out, _ = compressor.compress(smooth_doubles)
        assert compressor.decompress(out) == smooth_doubles

    @pytest.mark.parametrize("order", list(Linearization))
    def test_linearizations(self, noisy_doubles, order):
        compressor = PrimacyCompressor(
            PrimacyConfig(chunk_bytes=32 * 1024, linearization=order)
        )
        out, _ = compressor.compress(noisy_doubles)
        assert compressor.decompress(out) == noisy_doubles

    @pytest.mark.parametrize("backend", ["pyzlib", "pylzo", "huffman", "rle", "null"])
    def test_backend_codecs(self, obs_temp_small, backend):
        compressor = PrimacyCompressor(
            PrimacyConfig(codec=backend, chunk_bytes=32 * 1024)
        )
        out, _ = compressor.compress(obs_temp_small)
        assert compressor.decompress(out) == obs_temp_small

    @pytest.mark.parametrize("high_bytes", [1, 2, 3])
    def test_split_widths(self, obs_temp_small, high_bytes):
        compressor = PrimacyCompressor(
            PrimacyConfig(chunk_bytes=32 * 1024, high_bytes=high_bytes)
        )
        out, _ = compressor.compress(obs_temp_small)
        assert compressor.decompress(out) == obs_temp_small

    def test_special_float_patterns(self, compressor):
        special = np.array(
            [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324]
        ).tobytes()
        special += np.uint64(0x7FF8DEADBEEF0001).tobytes()
        out, _ = compressor.compress(special)
        assert compressor.decompress(out) == special

    def test_cross_instance_decode(self, obs_temp_small):
        """The container is self-describing: a default-config instance
        must decode output produced under any configuration."""
        enc = PrimacyCompressor(
            PrimacyConfig(
                codec="pylzo",
                chunk_bytes=16 * 1024,
                linearization=Linearization.ROW,
                index_policy=IndexReusePolicy.FIRST_CHUNK,
            )
        )
        out, _ = enc.compress(obs_temp_small)
        assert PrimacyCompressor().decompress(out) == obs_temp_small

    def test_deterministic_output(self, obs_temp_small):
        c1 = PrimacyCompressor(PrimacyConfig(chunk_bytes=32 * 1024))
        c2 = PrimacyCompressor(PrimacyConfig(chunk_bytes=32 * 1024))
        out1, _ = c1.compress(obs_temp_small)
        out2, _ = c2.compress(obs_temp_small)
        assert out1 == out2

    @given(seed=st.integers(0, 50), n=st.integers(0, 400))
    @settings(max_examples=25, deadline=None)
    def test_property_roundtrip_random_floats(self, seed, n):
        rng = np.random.default_rng(seed)
        data = rng.normal(0, 10.0 ** rng.integers(-10, 10), n).astype("<f8").tobytes()
        compressor = PrimacyCompressor(PrimacyConfig(chunk_bytes=8 * 1024))
        out, _ = compressor.compress(data)
        assert compressor.decompress(out) == data


class TestStats:
    def test_alpha1_is_high_fraction(self, compressor, smooth_doubles):
        _, stats = compressor.compress(smooth_doubles)
        assert stats.alpha1 == pytest.approx(0.25)

    def test_cr_matches_sizes(self, compressor, smooth_doubles):
        out, stats = compressor.compress(smooth_doubles)
        assert stats.compression_ratio == pytest.approx(
            len(smooth_doubles) / len(out)
        )

    def test_sigma_bounds(self, compressor, noisy_doubles):
        _, stats = compressor.compress(noisy_doubles)
        assert 0.0 < stats.sigma_ho <= 1.2
        assert 0.0 <= stats.sigma_lo <= 1.2
        assert 0.0 <= stats.alpha2 <= 1.0

    def test_throughput_stats_positive(self, compressor, noisy_doubles):
        _, stats = compressor.compress(noisy_doubles)
        assert stats.preconditioner_mbps > 0
        assert stats.compressor_mbps > 0

    def test_metadata_counted(self, compressor, smooth_doubles):
        _, stats = compressor.compress(smooth_doubles)
        assert stats.metadata_bytes > 0

    def test_index_reuse_reduces_metadata(self, obs_temp_small):
        per_chunk = PrimacyCompressor(
            PrimacyConfig(chunk_bytes=8 * 1024, index_policy=IndexReusePolicy.PER_CHUNK)
        )
        reuse = PrimacyCompressor(
            PrimacyConfig(
                chunk_bytes=8 * 1024, index_policy=IndexReusePolicy.FIRST_CHUNK
            )
        )
        _, stats_per = per_chunk.compress(obs_temp_small)
        _, stats_reuse = reuse.compress(obs_temp_small)
        assert stats_reuse.metadata_bytes < stats_per.metadata_bytes
        assert sum(c.index_reused for c in stats_reuse.chunks) == len(
            stats_reuse.chunks
        ) - 1


class TestContainerIntegrity:
    def test_checksum_detects_corruption(self, compressor, smooth_doubles):
        out, _ = compressor.compress(smooth_doubles)
        corrupted = bytearray(out)
        corrupted[len(out) // 2] ^= 0xFF
        with pytest.raises(CodecError):
            compressor.decompress(bytes(corrupted))

    def test_bad_magic_rejected(self, compressor):
        with pytest.raises(CodecError, match="container"):
            compressor.decompress(b"NOPE" + b"\x00" * 20)

    def test_bad_version_rejected(self, compressor, smooth_doubles):
        out, _ = compressor.compress(smooth_doubles)
        corrupted = bytearray(out)
        corrupted[4] = 99
        with pytest.raises(CodecError, match="version"):
            compressor.decompress(bytes(corrupted))

    def test_truncated_container(self, compressor, smooth_doubles):
        out, _ = compressor.compress(smooth_doubles)
        with pytest.raises((CodecError, ValueError)):
            compressor.decompress(out[: len(out) // 2])

    @pytest.mark.parametrize(
        "prefix, error",
        [
            # Ten continuation bytes: too long to be a uvarint at all.
            (b"\xff" * 10 + b"\x01", CorruptionError),
            # The container ends inside the length prefix.
            (b"\x80", TruncationError),
        ],
        ids=["over-long", "cut"],
    )
    def test_record_length_prefix_is_typed(self, compressor, prefix, error):
        out, _ = compressor.compress(b"\x00" * 1024)
        header = parse_container_header(out)
        damaged = out[: header.records_pos] + prefix
        with pytest.raises(error) as err:
            split_container(damaged)
        assert type(err.value) is error
        assert err.value.region == "chunk[0]"

    def test_no_checksum_mode(self, smooth_doubles):
        compressor = PrimacyCompressor(
            PrimacyConfig(chunk_bytes=32 * 1024, checksum=False)
        )
        out, _ = compressor.compress(smooth_doubles)
        assert compressor.decompress(out) == smooth_doubles


class TestPaperClaims:
    """The headline Table III behaviours on synthetic datasets."""

    def test_primacy_beats_zlib_on_hard_data(self):
        data = generate_bytes("gts_chkp_zeon", 16384, seed=3)
        mz = evaluate_codec(get_codec("pyzlib"), data)
        mp = evaluate_codec(PrimacyCodec(chunk_bytes=256 * 1024), data)
        assert mp.compression_ratio > mz.compression_ratio

    def test_primacy_loses_on_easy_data(self):
        """msg_sppm: index overhead on easy-to-compress data (Sec IV-E)."""
        data = generate_bytes("msg_sppm", 16384, seed=3)
        mz = evaluate_codec(get_codec("pyzlib"), data)
        mp = evaluate_codec(PrimacyCodec(chunk_bytes=256 * 1024), data)
        assert mp.compression_ratio < mz.compression_ratio

    def test_primacy_faster_than_vanilla_zlib(self):
        data = generate_bytes("obs_temp", 32768, seed=3)
        mz = evaluate_codec(get_codec("pyzlib"), data)
        mp = evaluate_codec(PrimacyCodec(chunk_bytes=256 * 1024), data)
        assert mp.compression_mbps > mz.compression_mbps
        assert mp.decompression_mbps > mz.decompression_mbps


class TestConfig:
    def test_high_bytes_validation(self):
        with pytest.raises(ValueError):
            PrimacyConfig(high_bytes=0)
        with pytest.raises(ValueError):
            PrimacyConfig(high_bytes=8)

    def test_codec_adapter_exposes_stats(self, obs_temp_small):
        codec = PrimacyCodec(chunk_bytes=32 * 1024)
        codec.compress(obs_temp_small)
        assert codec.last_stats is not None
        assert codec.last_stats.original_bytes == len(obs_temp_small)

    def test_codec_adapter_rejects_double_config(self):
        with pytest.raises(ValueError):
            PrimacyCodec(PrimacyConfig(), chunk_bytes=1024)
