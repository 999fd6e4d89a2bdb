"""Tests for sharded PRIF archives (repro.storage.catalog)."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.compressors import CodecError, CorruptionError, TruncationError
from repro.core import IndexReusePolicy, PrimacyConfig
from repro.datasets import generate_bytes
from repro.storage import (
    PrimacyFileReader,
    PrimacyFileWriter,
    ShardedArchiveReader,
    ShardedArchiveWriter,
    compact_archive,
    fsck_archive,
    read_catalog,
    salvage_archive,
)
from repro.storage.catalog import (
    CATALOG_NAME,
    ArchiveManifest,
    CatalogEntry,
    ShardInfo,
    decode_catalog,
    encode_catalog,
    shard_name,
)

CHUNK_BYTES = 8192


@pytest.fixture(scope="module")
def payload() -> bytes:
    # 64 full chunks of float64 plus a sub-word tail.
    return generate_bytes("obs_temp", 65536, seed=11) + b"wxy"


@pytest.fixture()
def config() -> PrimacyConfig:
    return PrimacyConfig(chunk_bytes=CHUNK_BYTES)


def _pack(directory, payload, config, *, shards=4, step=10000, **kwargs):
    with ShardedArchiveWriter(
        directory, config, shards=shards, workers=1, **kwargs
    ) as writer:
        for off in range(0, len(payload), step):
            writer.write(payload[off : off + step])
    return writer


class TestRoundTrip:
    @pytest.mark.parametrize("shards", [1, 3, 4, 8])
    def test_read_all_identity(self, tmp_path, payload, config, shards):
        _pack(tmp_path / "arc", payload, config, shards=shards)
        with ShardedArchiveReader(tmp_path / "arc") as reader:
            assert reader.n_chunks == 64
            assert reader.read_all() == payload

    def test_matches_monolithic_bytes(self, tmp_path, payload, config):
        """Sharded decode and monolithic decode agree byte for byte."""
        _pack(tmp_path / "arc", payload, config)
        with PrimacyFileWriter(tmp_path / "mono.prif", config) as writer:
            writer.write(payload)
        with ShardedArchiveReader(tmp_path / "arc") as reader:
            sharded = reader.read_all()
        with PrimacyFileReader(tmp_path / "mono.prif") as reader:
            assert sharded == reader.read_all()

    def test_read_chunk_and_range(self, tmp_path, payload, config):
        _pack(tmp_path / "arc", payload, config)
        with ShardedArchiveReader(tmp_path / "arc") as reader:
            assert reader.read_chunk(0) == payload[:CHUNK_BYTES]
            assert (
                reader.read_chunk(63)
                == payload[63 * CHUNK_BYTES : 64 * CHUNK_BYTES]
            )
            assert (
                reader.read_range(5, 9)
                == payload[5 * CHUNK_BYTES : 9 * CHUNK_BYTES]
            )
            assert reader.read_range(7, 7) == b""
            assert reader.read_values(1000, 500) == payload[8000:12000]

    def test_bounds_errors(self, tmp_path, payload, config):
        _pack(tmp_path / "arc", payload, config)
        with ShardedArchiveReader(tmp_path / "arc") as reader:
            with pytest.raises(ValueError):
                reader.read_chunk(64)
            with pytest.raises(ValueError):
                reader.read_chunk(-1)
            with pytest.raises(ValueError):
                reader.read_range(0, 65)
            with pytest.raises(ValueError):
                reader.read_values(0, 10**9)

    def test_engine_pool_pack(self, tmp_path, payload, config):
        with ShardedArchiveWriter(
            tmp_path / "arc", config, shards=3, workers=2
        ) as writer:
            writer.write(payload)
        with ShardedArchiveReader(tmp_path / "arc") as reader:
            assert reader.read_all() == payload

    def test_planner_mode(self, tmp_path, payload):
        from repro.planner import PlannerConfig

        planner = PlannerConfig(base=PrimacyConfig(chunk_bytes=CHUNK_BYTES))
        with ShardedArchiveWriter(
            tmp_path / "arc", shards=2, workers=1, planner=planner
        ) as writer:
            writer.write(payload)
        assert len(writer.decisions) == 64
        with ShardedArchiveReader(tmp_path / "arc") as reader:
            assert reader.manifest.planned
            assert reader.read_all() == payload


class TestWriter:
    def test_requires_per_chunk_policy(self, tmp_path):
        config = PrimacyConfig(index_policy=IndexReusePolicy.FIRST_CHUNK)
        with pytest.raises(ValueError, match="PER_CHUNK"):
            ShardedArchiveWriter(tmp_path / "arc", config, shards=2)

    def test_refused_before_any_file(self, tmp_path):
        # Shards and the catalog embed the PRIF header, which cannot
        # record bit-plane ISOBAR: not even the directory is made.
        config = PrimacyConfig(chunk_bytes=8 * 1024, isobar_granularity="bit")
        with pytest.raises(ValueError, match="isobar_granularity"):
            ShardedArchiveWriter(tmp_path / "arc", config, shards=2)
        assert list(tmp_path.iterdir()) == []

    def test_refuses_sealed_directory(self, tmp_path, payload, config):
        _pack(tmp_path / "arc", payload, config)
        with pytest.raises(ValueError, match="sealed"):
            ShardedArchiveWriter(tmp_path / "arc", config)

    def test_abort_publishes_nothing(self, tmp_path, payload, config):
        with pytest.raises(RuntimeError):
            with ShardedArchiveWriter(
                tmp_path / "arc", config, shards=2, workers=1
            ) as writer:
                writer.write(payload[:20000])
                raise RuntimeError("boom")
        assert list((tmp_path / "arc").iterdir()) == []

    def test_round_robin_layout(self, tmp_path, payload, config):
        _pack(tmp_path / "arc", payload, config, shards=4)
        manifest = read_catalog(tmp_path / "arc")
        assert [e.shard for e in manifest.entries] == [
            i % 4 for i in range(64)
        ]
        assert all(s.n_chunks == 16 for s in manifest.shards)

    def test_chunk_entries_only_after_close(self, tmp_path, payload, config):
        writer = PrimacyFileWriter(tmp_path / "f.prif", config)
        writer.write(payload[:CHUNK_BYTES])
        with pytest.raises(ValueError, match="close"):
            writer.chunk_entries()
        writer.close()
        assert len(writer.chunk_entries()) == 1

    def test_stats_aggregate(self, tmp_path, payload, config):
        writer = _pack(tmp_path / "arc", payload, config)
        assert writer.stats.original_bytes == len(payload)
        assert len(writer.stats.chunks) == 64
        sizes = sum(
            (tmp_path / "arc" / shard_name(i)).stat().st_size
            for i in range(4)
        )
        catalog = (tmp_path / "arc" / CATALOG_NAME).stat().st_size
        assert writer.stats.container_bytes == sizes + catalog


class TestCatalogFormat:
    def test_encode_decode_symmetry(self, tmp_path, payload, config):
        _pack(tmp_path / "arc", payload, config)
        manifest = read_catalog(tmp_path / "arc")
        assert decode_catalog(encode_catalog(manifest)) == manifest

    def test_missing_catalog_is_unsealed(self, tmp_path, payload, config):
        _pack(tmp_path / "arc", payload, config)
        (tmp_path / "arc" / CATALOG_NAME).unlink()
        with pytest.raises(TruncationError, match="unsealed"):
            read_catalog(tmp_path / "arc")

    def test_flipped_byte_detected(self, tmp_path, payload, config):
        _pack(tmp_path / "arc", payload, config)
        path = tmp_path / "arc" / CATALOG_NAME
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x40
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptionError):
            read_catalog(tmp_path / "arc")

    def test_truncation_detected(self, tmp_path, payload, config):
        _pack(tmp_path / "arc", payload, config)
        path = tmp_path / "arc" / CATALOG_NAME
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CodecError):
            read_catalog(tmp_path / "arc")

    def test_rejects_unsafe_shard_names(self, config):
        manifest = ArchiveManifest(
            config=config,
            shards=(ShardInfo(name="../evil.prif", file_bytes=64,
                              n_chunks=0),),
        )
        with pytest.raises(CorruptionError, match="unsafe"):
            decode_catalog(encode_catalog(manifest))

    def test_rejects_overlapping_extents(self, config):
        shards = (ShardInfo(name="s.prif", file_bytes=1000, n_chunks=2),)
        entries = (
            CatalogEntry(shard=0, offset=10, length=100, n_values=1024),
            CatalogEntry(shard=0, offset=50, length=100, n_values=1024),
        )
        manifest = ArchiveManifest(
            config=config, shards=shards, entries=entries,
            total_bytes=2048 * 8,
        )
        with pytest.raises(CorruptionError, match="overlaps"):
            decode_catalog(encode_catalog(manifest))

    def test_rejects_extent_past_shard_end(self, config):
        shards = (ShardInfo(name="s.prif", file_bytes=64, n_chunks=1),)
        entries = (
            CatalogEntry(shard=0, offset=10, length=100, n_values=1024),
        )
        manifest = ArchiveManifest(
            config=config, shards=shards, entries=entries,
            total_bytes=1024 * 8,
        )
        with pytest.raises(CorruptionError, match="past the end"):
            decode_catalog(encode_catalog(manifest))

    def test_rejects_value_total_mismatch(self, config):
        shards = (ShardInfo(name="s.prif", file_bytes=1000, n_chunks=1),)
        entries = (
            CatalogEntry(shard=0, offset=10, length=100, n_values=1024),
        )
        manifest = ArchiveManifest(
            config=config, shards=shards, entries=entries, total_bytes=1,
        )
        with pytest.raises(CorruptionError, match="total length"):
            decode_catalog(encode_catalog(manifest))


class TestReadLocality:
    """The acceptance check: one chunk read touches manifest + one record."""

    def setup_method(self):
        obs.disable()
        obs.reset()

    def teardown_method(self):
        obs.disable()
        obs.reset()

    @staticmethod
    def _counters():
        return {
            name: value
            for name, _labels, value in (
                obs.metrics.registry().snapshot()["counters"]
            )
        }

    def test_read_chunk_touches_one_shard(self, tmp_path, payload, config):
        _pack(tmp_path / "arc", payload, config, shards=4)
        archive_bytes = sum(
            p.stat().st_size for p in (tmp_path / "arc").iterdir()
        )
        obs.enable()
        try:
            with ShardedArchiveReader(tmp_path / "arc") as reader:
                entry = reader.manifest.entries[17]
                chunk = reader.read_chunk(17)
            counters = self._counters()
        finally:
            obs.disable()
        assert len(chunk) == CHUNK_BYTES
        assert counters["catalog.read.chunks"] == 1
        assert counters["catalog.shards.opened"] == 1
        # Bytes touched = exactly the one record the catalog points at;
        # everything else in the archive stayed cold.
        assert counters["catalog.read.bytes_touched"] == entry.length
        manifest_bytes = counters["catalog.read.manifest_bytes"]
        assert manifest_bytes + entry.length < archive_bytes / 4
        assert counters["catalog.read.bytes_returned"] == CHUNK_BYTES

    def test_handle_lru_hits_and_evictions(self, tmp_path, payload, config):
        _pack(tmp_path / "arc", payload, config, shards=4)
        obs.enable()
        try:
            with ShardedArchiveReader(
                tmp_path / "arc", max_open_shards=2
            ) as reader:
                out = reader.read_range(0, 64)
            counters = self._counters()
        finally:
            obs.disable()
        assert out == payload[: 64 * CHUNK_BYTES]
        # Round-robin over 4 shards with 2 handle slots never re-hits an
        # open handle and evicts on every open after the first two.
        assert counters["catalog.handles.miss"] == 64
        assert counters["catalog.handles.evicted"] == 62
        assert counters.get("catalog.handles.hit", 0) == 0


class TestVerify:
    def test_fsck_clean(self, tmp_path, payload, config):
        _pack(tmp_path / "arc", payload, config)
        report = fsck_archive(tmp_path / "arc")
        assert report.ok and report.sealed
        assert report.n_chunks_ok == report.n_chunks == 64
        doc = report.to_dict()
        assert doc["format"] == "PRAC" and doc["ok"]
        assert set(doc["shards"]) == {shard_name(i) for i in range(4)}
        json.dumps(doc)  # must be JSON-serializable as-is

    def test_fsck_localizes_shard_damage(self, tmp_path, payload, config):
        _pack(tmp_path / "arc", payload, config, shards=4)
        manifest = read_catalog(tmp_path / "arc")
        victim = manifest.entries[2]  # lives in shard 2
        path = tmp_path / "arc" / manifest.shards[victim.shard].name
        blob = bytearray(path.read_bytes())
        blob[victim.offset + victim.length // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        report = fsck_archive(tmp_path / "arc")
        assert not report.ok and report.sealed
        bad = [n for n, sub in report.shards.items() if not sub.ok]
        assert bad == [manifest.shards[victim.shard].name]

    def test_fsck_unsealed_archive(self, tmp_path, payload, config):
        _pack(tmp_path / "arc", payload, config)
        (tmp_path / "arc" / CATALOG_NAME).unlink()
        report = fsck_archive(tmp_path / "arc")
        assert not report.sealed and not report.ok
        # Shards are individually intact, so damage is localized to the
        # missing catalog.
        assert all(sub.ok for sub in report.shards.values())
        assert report.n_chunks_ok == 64

    def test_fsck_detects_catalog_shard_disagreement(
        self, tmp_path, payload, config
    ):
        _pack(tmp_path / "arc", payload, config, shards=2)
        # Regenerate the catalog with one lying extent (valid CRC).
        manifest = read_catalog(tmp_path / "arc")
        entries = list(manifest.entries)
        victim = entries[0]
        entries[0] = CatalogEntry(
            shard=victim.shard,
            offset=victim.offset,
            length=victim.length - 1,
            n_values=victim.n_values,
        )
        lying = ArchiveManifest(
            config=manifest.config,
            planned=manifest.planned,
            shards=manifest.shards,
            entries=tuple(entries),
            tail=manifest.tail,
            total_bytes=manifest.total_bytes,
        )
        (tmp_path / "arc" / CATALOG_NAME).write_bytes(encode_catalog(lying))
        report = fsck_archive(tmp_path / "arc")
        assert not report.ok

    def test_salvage_catalog_mode(self, tmp_path, payload, config):
        _pack(tmp_path / "arc", payload, config)
        result = salvage_archive(tmp_path / "arc", tmp_path / "out.bin")
        assert result.complete and result.mode == "catalog"
        assert (tmp_path / "out.bin").read_bytes() == payload

    def test_salvage_loses_only_damaged_chunks(
        self, tmp_path, payload, config
    ):
        _pack(tmp_path / "arc", payload, config, shards=4)
        manifest = read_catalog(tmp_path / "arc")
        victim = manifest.entries[9]
        path = tmp_path / "arc" / manifest.shards[victim.shard].name
        blob = bytearray(path.read_bytes())
        blob[victim.offset + 4] ^= 0xFF
        path.write_bytes(bytes(blob))
        result = salvage_archive(tmp_path / "arc")
        assert not result.complete
        assert result.n_recovered == 63
        doc = result.to_dict()
        assert doc["lost_ranges"] == [[9, 10]]
        assert doc["recovered_ranges"] == [[0, 9], [10, 64]]
        # Everything around the damage is byte-identical.
        lost = range(9 * CHUNK_BYTES, 10 * CHUNK_BYTES)
        assert result.data == payload[: lost.start] + payload[lost.stop : -3]

    def test_salvage_unsealed_composes_per_shard(
        self, tmp_path, payload, config
    ):
        _pack(tmp_path / "arc", payload, config, shards=4)
        (tmp_path / "arc" / CATALOG_NAME).unlink()
        result = salvage_archive(tmp_path / "arc", tmp_path / "out")
        assert result.mode == "per-shard" and not result.sealed
        assert set(result.shards) == {shard_name(i) for i in range(4)}
        doc = result.to_dict()
        assert set(doc["shards"]) == set(result.shards)
        # Each shard holds its round-robin interleave, byte-identical.
        for sid in range(4):
            expected = b"".join(
                payload[g * CHUNK_BYTES : (g + 1) * CHUNK_BYTES]
                for g in range(sid, 64, 4)
            )
            sub = result.shards[shard_name(sid)]
            assert sub.data == expected
            out = (tmp_path / "out" / f"{shard_name(sid)}.bin").read_bytes()
            assert out == expected


class TestCompact:
    @pytest.mark.parametrize("new_shards", [1, 2, 8])
    def test_rebalance_roundtrip(self, tmp_path, payload, config, new_shards):
        _pack(tmp_path / "arc", payload, config, shards=4)
        manifest = compact_archive(
            tmp_path / "arc", tmp_path / "arc2", shards=new_shards
        )
        assert len(manifest.shards) == new_shards
        assert fsck_archive(tmp_path / "arc2").ok
        with ShardedArchiveReader(tmp_path / "arc2") as reader:
            assert reader.read_all() == payload

    def test_records_copied_verbatim(self, tmp_path, payload, config):
        _pack(tmp_path / "arc", payload, config, shards=4)
        source = read_catalog(tmp_path / "arc")
        compact_archive(tmp_path / "arc", tmp_path / "arc2", shards=2)
        dest = read_catalog(tmp_path / "arc2")
        for old, new in zip(source.entries, dest.entries):
            old_path = tmp_path / "arc" / source.shards[old.shard].name
            new_path = tmp_path / "arc2" / dest.shards[new.shard].name
            old_bytes = old_path.read_bytes()[
                old.offset : old.offset + old.length
            ]
            new_bytes = new_path.read_bytes()[
                new.offset : new.offset + new.length
            ]
            assert old_bytes == new_bytes

    def test_refuses_in_place(self, tmp_path, payload, config):
        _pack(tmp_path / "arc", payload, config)
        with pytest.raises(ValueError, match="destination"):
            compact_archive(tmp_path / "arc", tmp_path / "arc")


class TestReaderCaching:
    """Satellite: parsed metadata + index chain memoization."""

    def setup_method(self):
        obs.disable()
        obs.reset()

    def teardown_method(self):
        obs.disable()
        obs.reset()

    def test_metadata_cache_hit_on_reopen(self, tmp_path, payload, config):
        path = tmp_path / "f.prif"
        with PrimacyFileWriter(path, config) as writer:
            writer.write(payload)
        obs.enable()
        try:
            with PrimacyFileReader(path) as first:
                first.read_chunk(0)
            with PrimacyFileReader(path) as second:
                assert second.read_chunk(1) == payload[
                    CHUNK_BYTES : 2 * CHUNK_BYTES
                ]
            counters = {
                name: value
                for name, _labels, value in (
                    obs.metrics.registry().snapshot()["counters"]
                )
            }
        finally:
            obs.disable()
        assert counters.get("storage.read.metadata_cache_hit", 0) >= 1

    def test_cache_invalidated_by_rewrite(self, tmp_path, payload, config):
        path = tmp_path / "f.prif"
        with PrimacyFileWriter(path, config) as writer:
            writer.write(payload)
        with PrimacyFileReader(path) as reader:
            assert reader.n_chunks == 64
        shorter = payload[: 16 * CHUNK_BYTES]
        with PrimacyFileWriter(path, config) as writer:
            writer.write(shorter)
        with PrimacyFileReader(path) as reader:
            assert reader.n_chunks == 16
            assert reader.read_all() == shorter

    def test_opt_out_reparses(self, tmp_path, payload, config):
        path = tmp_path / "f.prif"
        with PrimacyFileWriter(path, config) as writer:
            writer.write(payload)
        with PrimacyFileReader(path, cache_metadata=False) as reader:
            assert reader.read_all() == payload

    def test_reuse_chain_before_state_memoized(self, tmp_path, payload):
        config = PrimacyConfig(
            chunk_bytes=CHUNK_BYTES,
            index_policy=IndexReusePolicy.FIRST_CHUNK,
        )
        path = tmp_path / "f.prif"
        with PrimacyFileWriter(path, config) as writer:
            writer.write(payload)
        with PrimacyFileReader(path, cache_metadata=False) as reader:
            want = payload[40 * CHUNK_BYTES : 41 * CHUNK_BYTES]
            assert reader.read_chunk(40) == want
            assert 40 in reader._index_before or (
                reader.info.chunks[40].inline_index
            )
            # Second read of the same chunk resolves from the memo.
            assert reader.read_chunk(40) == want
