"""Tests for the persistent shared-memory parallel engine.

Identity, not timing: this suite asserts that every parallel path
(engine fan-out, parallel decompression, pipelined storage and
checkpoint writes) produces output byte-identical to the serial
pipeline.  Speedups are a benchmark concern
(``benchmarks/bench_parallel_engine.py``), not a test concern -- CI
hosts may have a single core.
"""

from __future__ import annotations

import io
import os
import time

import numpy as np
import pytest
from multiprocessing.shared_memory import SharedMemory

from repro.core import IndexReusePolicy, PrimacyCompressor, PrimacyConfig
from repro.core.linearize import Linearization
from repro.datasets import generate_bytes
from repro.parallel import EngineError, ParallelCompressor, ParallelEngine
from repro.parallel.engine import KIND_COMPRESS, KIND_DECOMPRESS


@pytest.fixture(scope="module")
def payload() -> bytes:
    # ~72 KB: with 16 KiB chunks that is four shared-memory-sized chunks
    # plus a sub-threshold partial that rides the pickle path.
    return generate_bytes("obs_temp", 72000, seed=11) + b"xy"


@pytest.fixture(scope="module")
def grid_payload() -> bytes:
    return generate_bytes("obs_temp", 24000, seed=7) + b"z"


_SERIAL_MEMO: dict[tuple, bytes] = {}


def _serial_reference(config: PrimacyConfig, data: bytes) -> bytes:
    key = (config.codec, config.linearization, config.checksum, len(data))
    if key not in _SERIAL_MEMO:
        _SERIAL_MEMO[key] = PrimacyCompressor(config).compress(data)[0]
    return _SERIAL_MEMO[key]


class TestByteIdentityGrid:
    """Parallel output must equal serial output bit for bit, and round
    trip through the parallel decoder, across the codec /
    linearization / checksum / worker-count grid."""

    @pytest.mark.parametrize("codec", ["pyzlib", "pylzo", "huffman"])
    @pytest.mark.parametrize(
        "linearization", [Linearization.COLUMN, Linearization.ROW]
    )
    @pytest.mark.parametrize("checksum", [True, False])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_identity_and_roundtrip(
        self, grid_payload, codec, linearization, checksum, workers
    ):
        cfg = PrimacyConfig(
            codec=codec,
            chunk_bytes=8 * 1024,
            linearization=linearization,
            checksum=checksum,
        )
        serial = _serial_reference(cfg, grid_payload)
        with ParallelCompressor(cfg, workers=workers) as comp:
            out, stats = comp.compress(grid_payload)
            assert comp.decompress(out) == grid_payload
        assert out == serial
        assert stats.original_bytes == len(grid_payload)


class TestEnginePersistence:
    def test_pool_survives_across_compress_calls(self, payload):
        cfg = PrimacyConfig(chunk_bytes=16 * 1024)
        serial = PrimacyCompressor(cfg).compress(payload)[0]
        with ParallelCompressor(cfg, workers=2) as comp:
            assert comp.compress(payload)[0] == serial
            pids = sorted(p.pid for p in comp.engine._procs)
            tasks_after_first = comp.engine.stats.tasks
            assert comp.compress(payload)[0] == serial
            assert sorted(p.pid for p in comp.engine._procs) == pids
            assert comp.engine.stats.tasks > tasks_after_first

    def test_engine_restarts_after_close(self, payload):
        cfg = PrimacyConfig(chunk_bytes=16 * 1024)
        serial = PrimacyCompressor(cfg).compress(payload)[0]
        comp = ParallelCompressor(cfg, workers=2)
        try:
            assert comp.compress(payload)[0] == serial
            comp.engine.close()
            assert not comp.engine.started
            assert comp.compress(payload)[0] == serial
            assert comp.engine.started
        finally:
            comp.close()

    def test_shared_engine_spans_compress_and_decompress(self, payload):
        cfg = PrimacyConfig(chunk_bytes=16 * 1024)
        with ParallelEngine(cfg, workers=2) as engine:
            comp = ParallelCompressor(engine=engine)
            out, _ = comp.compress(payload)
            assert comp.decompress(out) == payload
            # Shared engines are not closed by their borrowers.
            comp.close()
            assert engine.started


class TestZeroCopyInputs:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_buffer_types_compress_identically(self, payload, workers):
        cfg = PrimacyConfig(chunk_bytes=16 * 1024)
        arr = np.frombuffer(payload[: len(payload) - len(payload) % 8], "<f8")
        with ParallelCompressor(cfg, workers=workers) as comp:
            from_bytes = comp.compress(bytes(arr.tobytes()))[0]
            from_bytearray = comp.compress(bytearray(arr.tobytes()))[0]
            from_view = comp.compress(memoryview(arr.tobytes()))[0]
            from_array = comp.compress(arr)[0]
        assert from_bytes == from_bytearray == from_view == from_array

    def test_chunker_yields_views_not_copies(self, payload):
        from repro.core.chunking import Chunker

        chunks, tail = Chunker(16 * 1024, 8).split(payload)
        assert all(isinstance(c.data, memoryview) for c in chunks)
        joined = b"".join(bytes(c.data) for c in chunks) + tail
        assert joined == payload


class TestEngineInternals:
    def test_mixed_payload_sizes_use_both_transports(self, payload):
        cfg = PrimacyConfig(chunk_bytes=16 * 1024)
        with ParallelCompressor(cfg, workers=2) as comp:
            comp.compress(payload)
            stats = comp.engine.stats
        # Full chunks (16 KiB) go through shared memory, the partial
        # tail chunk through the pickle path.
        assert stats.shm_bytes >= 4 * 16 * 1024
        assert stats.pickled_bytes > 0
        assert stats.result_bytes > 0
        assert stats.worker_seconds > 0.0
        summary = stats.summary()
        assert summary["tasks"] == stats.tasks
        assert 0.0 <= summary["busy_fraction"]

    def test_pop_supports_out_of_order_collection(self, payload):
        cfg = PrimacyConfig(chunk_bytes=16 * 1024)
        chunk = payload[: 16 * 1024]
        expected = PrimacyCompressor(cfg).compress_chunk(chunk)[0]
        with ParallelEngine(cfg, workers=2) as engine:
            ids = [engine.submit(KIND_COMPRESS, chunk) for _ in range(4)]
            for task_id in reversed(ids):
                record, _stats = engine.pop(task_id)
                assert record == expected

    def test_map_ordered_respects_window(self, payload):
        cfg = PrimacyConfig(chunk_bytes=16 * 1024)
        chunk = payload[: 16 * 1024]
        with ParallelEngine(cfg, workers=2, max_pending=2) as engine:
            for _ in engine.map_ordered(KIND_COMPRESS, [chunk] * 6):
                assert len(engine._pending) + len(engine._done) <= 2

    def test_segments_are_recycled(self, payload):
        cfg = PrimacyConfig(chunk_bytes=16 * 1024)
        chunk = payload[: 16 * 1024]
        with ParallelEngine(cfg, workers=2, max_pending=2) as engine:
            for _ in engine.map_ordered(KIND_COMPRESS, [chunk] * 8):
                pass
            # A steady stream of equal-size chunks needs at most
            # max_pending + 1 segments, ever.
            assert len(engine._all_shm) <= engine.max_pending + 1

    def test_worker_error_propagates_typed(self):
        """Corrupt input re-raises the worker's typed CodecError, and the
        pool survives the poisoned task."""
        from repro.compressors import CodecError

        cfg = PrimacyConfig(chunk_bytes=16 * 1024)
        with ParallelEngine(cfg, workers=2) as engine:
            task_id = engine.submit(KIND_DECOMPRESS, b"\xff" * (20 * 1024))
            with pytest.raises(CodecError):
                engine.pop(task_id)
            # The pool survives a poisoned task.
            chunk = generate_bytes("obs_temp", 16 * 1024, seed=1)
            record, _ = engine.pop(engine.submit(KIND_COMPRESS, chunk))
            assert record == PrimacyCompressor(cfg).compress_chunk(chunk)[0]

    def test_worker_non_codec_error_raises_engine_error(self):
        """Failures that are not data corruption surface as EngineError."""
        with ParallelEngine(PrimacyConfig(), workers=1) as engine:
            task_id = engine.submit("no-such-kind", b"x" * 8)
            with pytest.raises(EngineError, match="worker failed"):
                engine.pop(task_id)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ParallelEngine(workers=0)
        with pytest.raises(ValueError):
            ParallelEngine(workers=2, max_pending=0)


class TestCrashSafety:
    def test_close_with_inflight_tasks_releases_everything(self, payload):
        cfg = PrimacyConfig(chunk_bytes=16 * 1024)
        engine = ParallelEngine(cfg, workers=2, max_pending=8)
        chunk = payload[: 16 * 1024]
        for _ in range(6):
            engine.submit(KIND_COMPRESS, chunk)
        names = [shm.name for shm in engine._all_shm]
        assert names
        t0 = time.monotonic()
        engine.close()
        assert time.monotonic() - t0 < 30.0  # no deadlock
        assert not engine.started
        assert engine._all_shm == []
        for name in names:
            with pytest.raises(FileNotFoundError):
                SharedMemory(name=name)  # unlink really ran
        engine.close()  # idempotent

    def test_fork_safety(self, payload):
        cfg = PrimacyConfig(chunk_bytes=16 * 1024)
        serial = PrimacyCompressor(cfg).compress(payload)[0]
        with ParallelCompressor(cfg, workers=2) as comp:
            assert comp.compress(payload)[0] == serial  # pool is live
            pid = os.fork()
            if pid == 0:
                # Child: the inherited pool belongs to the parent; the
                # engine must detect the fork and rebuild its own.
                status = 3
                try:
                    ok = comp.compress(payload)[0] == serial
                    comp.engine.close()
                    status = 0 if ok else 1
                except BaseException:
                    status = 2
                finally:
                    os._exit(status)
            _, wait_status = os.waitpid(pid, 0)
            assert os.WIFEXITED(wait_status)
            assert os.WEXITSTATUS(wait_status) == 0
            # The parent's pool is untouched by the child's rebuild.
            assert comp.compress(payload)[0] == serial

    def test_pool_start_failure_falls_back_inline(self, payload):
        cfg = PrimacyConfig(chunk_bytes=16 * 1024)
        serial = PrimacyCompressor(cfg).compress(payload)[0]

        class BrokenCtx:
            @staticmethod
            def get_start_method():
                return "fork"

            @staticmethod
            def Queue():
                raise OSError("no queues today")

        engine = ParallelEngine(cfg, workers=2)
        engine._ctx = BrokenCtx()
        try:
            with pytest.warns(RuntimeWarning, match="falling back"):
                out, _ = ParallelCompressor(engine=engine).compress(payload)
            assert out == serial
            assert engine.stats.inline_tasks > 0
        finally:
            engine.close()


class TestParallelDecompressor:
    """Container decoding through :meth:`ParallelCompressor.decompress`."""

    def test_serial_fallback_for_reuse_chains(self, payload):
        cfg = PrimacyConfig(
            chunk_bytes=16 * 1024,
            index_policy=IndexReusePolicy.FIRST_CHUNK,
        )
        container = PrimacyCompressor(cfg).compress(payload)[0]
        with ParallelCompressor(workers=2) as dec:
            assert dec.decompress(container) == payload
            # The chain forced the serial path: no pool was started.
            assert not dec.engine.started

    def test_header_drives_config_not_instance(self, payload):
        # A decompressor built with the *default* config must still
        # decode a container produced with a different codec/linearization.
        cfg = PrimacyConfig(
            codec="huffman",
            chunk_bytes=16 * 1024,
            linearization=Linearization.ROW,
            checksum=False,
        )
        container = PrimacyCompressor(cfg).compress(payload)[0]
        with ParallelCompressor(workers=2) as dec:
            assert dec.decompress(container) == payload

    def test_empty_record_raises_typed(self, payload):
        from repro.compressors import TruncationError
        from repro.core.primacy import split_container
        from repro.util.varint import encode_uvarint

        container = PrimacyCompressor(
            PrimacyConfig(chunk_bytes=16 * 1024)
        ).compress(payload)[0]
        header, records, _ = split_container(container)
        damaged = container[: header.records_pos] + encode_uvarint(0)
        damaged += b"".join(encode_uvarint(len(r)) + r for r in records[1:])
        with ParallelCompressor(workers=2) as dec:
            with pytest.raises(TruncationError, match="empty chunk record"):
                dec.decompress(damaged)

    def test_empty_and_tiny_inputs(self):
        cfg = PrimacyConfig(chunk_bytes=16 * 1024)
        for data in (b"", b"\x01", os.urandom(64)):
            container = PrimacyCompressor(cfg).compress(data)[0]
            with ParallelCompressor(workers=2) as dec:
                assert dec.decompress(container) == data


class TestPipelinedWriters:
    def test_file_writer_byte_identical_to_serial(self, payload):
        from repro.storage.reader import PrimacyFileReader
        from repro.storage.writer import PrimacyFileWriter

        cfg = PrimacyConfig(chunk_bytes=16 * 1024)
        serial_buf, engine_buf = io.BytesIO(), io.BytesIO()
        with PrimacyFileWriter(serial_buf, cfg) as writer:
            for i in range(0, len(payload), 7919):  # odd-sized writes
                writer.write(payload[i : i + 7919])
            serial_stats = writer.stats
        with PrimacyFileWriter(engine_buf, cfg, workers=2) as writer:
            for i in range(0, len(payload), 7919):
                writer.write(payload[i : i + 7919])
            engine_stats = writer.stats
        assert engine_buf.getvalue() == serial_buf.getvalue()
        # Timing fields differ run to run; every size/count must not.
        import dataclasses

        def sizes(stats):
            return [
                dataclasses.replace(c, prec_seconds=0.0, codec_seconds=0.0)
                for c in stats.chunks
            ]

        assert sizes(engine_stats) == sizes(serial_stats)
        assert engine_stats.original_bytes == serial_stats.original_bytes
        assert engine_stats.container_bytes == serial_stats.container_bytes
        reader = PrimacyFileReader(io.BytesIO(engine_buf.getvalue()))
        assert reader.read_all() == payload

    def test_file_writer_rejects_reuse_policy_pipelining(self):
        from repro.storage.writer import PrimacyFileWriter

        cfg = PrimacyConfig(index_policy=IndexReusePolicy.FIRST_CHUNK)
        with pytest.raises(ValueError, match="PER_CHUNK"):
            PrimacyFileWriter(io.BytesIO(), cfg, workers=2)

    def test_checkpoint_writer_byte_identical_to_serial(self):
        from repro.checkpoint.manager import CheckpointReader, CheckpointWriter

        cfg = PrimacyConfig(chunk_bytes=8 * 1024)
        rng = np.random.default_rng(5)
        temp = (280 + np.cumsum(rng.normal(0, 0.02, 4000))).astype("<f8")
        rank = np.arange(3000, dtype="<i4") % 97

        def write_all(buf, **kwargs):
            with CheckpointWriter(buf, cfg, **kwargs) as writer:
                for step in (0, 10):
                    writer.write_step(step, {"temp": temp, "rank": rank})

        serial_buf, parallel_buf = io.BytesIO(), io.BytesIO()
        write_all(serial_buf)
        write_all(parallel_buf, workers=2)
        assert parallel_buf.getvalue() == serial_buf.getvalue()

        reader = CheckpointReader(io.BytesIO(parallel_buf.getvalue()))
        assert reader.steps() == [0, 10]
        np.testing.assert_array_equal(reader.read(10, "temp"), temp)
        np.testing.assert_array_equal(reader.read(0, "rank"), rank)
