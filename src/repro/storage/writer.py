"""Streaming PRIF writer.

Designed for the in-situ pattern the paper targets: the simulation calls
:meth:`PrimacyFileWriter.write` with whatever it has produced (any byte
granularity); the writer cuts word-aligned chunks of the configured size,
compresses each immediately (bounded memory), and appends the record.
:meth:`close` flushes the partial last chunk and writes the footer.

With ``workers=``/``engine=`` the writer goes *pipelined*: chunks are fanned
out to a :class:`repro.parallel.ParallelEngine` and records are written as
they complete, in order -- while record *k* hits the file, records
*k+1..k+max_pending* are compressing in the workers.  Output bytes and
accumulated :class:`~repro.core.PrimacyStats` are identical to the serial
path (records are independent under the ``PER_CHUNK`` index policy, which
pipelined mode therefore requires).

Usable as a context manager; statistics (:class:`repro.core.PrimacyStats`)
accumulate across the stream for model calibration.
"""

from __future__ import annotations

import io
import os
import time
from collections import deque
from pathlib import Path

from repro.core.idmap import IndexReusePolicy
from repro.core.primacy import (
    PrimacyCompressor,
    PrimacyConfig,
    PrimacyStats,
)
from repro.obs import metrics as _obs_metrics
from repro.obs import trace as _obs_trace
from repro.obs.runtime import STATE as _OBS_STATE
from repro.storage.format import (
    ChunkEntry,
    encode_footer,
    encode_header,
    encode_trailer,
    require_storable,
)
from repro.util.durable import AtomicFile
from repro.util.varint import encode_uvarint

__all__ = ["PrimacyFileWriter"]


class PrimacyFileWriter:
    """Write PRIMACY-compressed values to a seekable file.

    Parameters
    ----------
    target:
        Path or writable binary file object.
    config:
        Pipeline configuration; stored in the header so any reader can
        reconstruct the pipeline.
    workers:
        Optional worker count; ``workers > 1`` overlaps chunk
        compression with file I/O (requires the ``PER_CHUNK`` index
        policy).  The engine is owned and shut down by :meth:`close`.
    engine:
        Share an existing :class:`repro.parallel.ParallelEngine`
        (e.g. across checkpoint segments); the caller owns its lifetime.
    planner:
        A :class:`repro.planner.PlannerConfig` instead of ``config``
        (mutually exclusive): every chunk is probed across the planner's
        candidates and written as a self-describing planned record; the
        header carries the planner's base config plus the *planned*
        flag.  Per-chunk :class:`repro.planner.Decision` objects
        accumulate in :attr:`decisions`.  Composes with ``workers=`` --
        the probe then runs inside the workers.
    durable:
        For path targets (default on): stage bytes in ``<target>.tmp``
        and atomically rename onto ``target`` at :meth:`close` (after
        fsync), so a crash mid-write never leaves a file a reader could
        mistake for complete.  Ignored for file-object targets.
    """

    def __init__(
        self,
        target: str | os.PathLike | io.RawIOBase | io.BufferedIOBase,
        config: PrimacyConfig | None = None,
        *,
        workers: int | None = None,
        engine=None,
        planner=None,
        durable: bool = True,
    ) -> None:
        if planner is not None and config is not None:
            raise ValueError("pass config= or planner=, not both")
        self.planner = planner
        self.decisions: list = []
        if planner is not None:
            self.config = planner.base
        else:
            self.config = config or PrimacyConfig()
        require_storable(self.config)
        if (
            engine is not None or workers is not None
        ) and self.config.index_policy is not IndexReusePolicy.PER_CHUNK:
            raise ValueError(
                "pipelined writes require the PER_CHUNK index policy; "
                "reuse chains make chunk records order-dependent"
            )
        self._atomic: AtomicFile | None = None
        if isinstance(target, (str, os.PathLike)):
            if durable:
                self._atomic = AtomicFile(Path(target))
                self._fh = self._atomic
            else:
                self._fh = open(Path(target), "wb")
            self._owns_fh = True
        else:
            self._fh = target
            self._owns_fh = False
        self._engine = None
        self._owns_engine = False
        if engine is not None:
            self._engine = engine
        elif workers is not None:
            from repro.parallel.engine import ParallelEngine

            self._engine = ParallelEngine(self.config, workers=workers)
            self._owns_engine = True
        self._inflight: deque[int] = deque()
        # Persistent for the writer's lifetime, so its ScratchArena is
        # reused across every chunk written through the serial path.
        self._compressor = PrimacyCompressor(self.config)
        self._planner_inline = None  # lazy ChunkPlanner for serial planning
        self._buffer = bytearray()
        self._chunks: list[ChunkEntry] = []
        self._state = None
        self._last_inline = -1
        self._total_bytes = 0
        self._closed = False
        self.stats = PrimacyStats()

        self._header = encode_header(self.config, planned=planner is not None)
        self._fh.write(self._header)
        self._pos = len(self._header)

    # ------------------------------------------------------------------

    def write(self, data: bytes | bytearray | memoryview) -> None:
        """Append raw value bytes; chunks are cut and compressed eagerly."""
        if self._closed:
            raise ValueError("writer is closed")
        self._buffer += data
        self._total_bytes += len(data)
        chunk_bytes = self._compressor._chunker.chunk_bytes
        while len(self._buffer) >= chunk_bytes:
            self._emit_chunk(chunk_bytes)

    def close(self) -> None:
        """Flush the final partial chunk, write the footer, close the file.

        For durable path targets this is also the *publication* point:
        the staged ``.tmp`` file is fsynced and atomically renamed onto
        the target name only after the complete footer and trailer are
        on disk.
        """
        if self._closed:
            return
        word = self.config.word_bytes
        usable = len(self._buffer) - (len(self._buffer) % word)
        if usable:
            self._emit_chunk(usable)
        tail = bytes(self._buffer)
        self._drain(0)
        footer = encode_footer(self._chunks, tail, self._total_bytes)
        self._fh.write(footer)
        self._fh.write(encode_trailer(self._header, footer))
        self.stats.container_bytes = self._pos
        self.stats.original_bytes = self._total_bytes
        if self._owns_engine:
            self._engine.close()
        if self._atomic is not None:
            self._atomic.commit()
        elif self._owns_fh:
            self._fh.close()
        self._closed = True

    def abort(self) -> None:
        """Abandon the write: no footer, and no published file.

        Called by ``__exit__`` when the body raised; a durable target is
        left exactly as it was before the writer opened, and a plain
        file target keeps its (footer-less, hence unreadable) bytes.
        """
        if self._closed:
            return
        self._inflight.clear()
        if self._owns_engine:
            self._engine.close()
        if self._atomic is not None:
            self._atomic.discard()
        elif self._owns_fh:
            self._fh.close()
        self._closed = True

    # ------------------------------------------------------------------

    def _emit_chunk(self, length: int) -> None:
        """Compress and append the first ``length`` buffered bytes."""
        if self._engine is not None:
            from repro.parallel.engine import KIND_COMPRESS, KIND_PLAN_COMPRESS

            # Publish straight out of the accumulation buffer -- submit
            # copies into shared memory, so the bytes can be dropped as
            # soon as it returns (the view must be released first, or
            # the bytearray refuses to resize).
            with memoryview(self._buffer) as view:
                if self.planner is not None:
                    task_id = self._engine.submit(
                        KIND_PLAN_COMPRESS, view[:length], self.planner
                    )
                else:
                    task_id = self._engine.submit(
                        KIND_COMPRESS, view[:length], self.config
                    )
            self._inflight.append(task_id)
            del self._buffer[:length]
            self._drain(self._engine.max_pending)
            return
        if self.planner is not None:
            if self._planner_inline is None:
                from repro.planner.planner import ChunkPlanner

                self._planner_inline = ChunkPlanner(self.planner)
            with memoryview(self._buffer) as view:
                record, chunk_stats, decision = (
                    self._planner_inline.compress_chunk(view[:length])
                )
            del self._buffer[:length]
            self.decisions.append(decision)
            self._write_record(record, chunk_stats)
            return
        with memoryview(self._buffer) as view:
            record, chunk_stats, self._state = self._compressor.compress_chunk(
                view[:length], self._state
            )
        del self._buffer[:length]
        self._write_record(record, chunk_stats)

    def _drain(self, keep: int) -> None:
        """Write completed records (in order) until ``keep`` remain in flight."""
        while len(self._inflight) > keep:
            result = self._engine.pop(self._inflight.popleft())
            if self.planner is not None:
                record, chunk_stats, decision = result
                self.decisions.append(decision)
            else:
                record, chunk_stats = result
            self._write_record(record, chunk_stats)

    def _write_record(self, record: bytes, chunk_stats) -> None:
        if _OBS_STATE.enabled:
            t0 = time.perf_counter()
            self._write_record_inner(record, chunk_stats)
            seconds = time.perf_counter() - t0
            reg = _obs_metrics.registry()
            reg.counter("storage.write.records").inc()
            reg.counter("storage.write.bytes").inc(len(record))
            reg.gauge("storage.write.inflight").set(float(len(self._inflight)))
            _obs_trace.record_span("storage.write_record", seconds)
            return
        self._write_record_inner(record, chunk_stats)

    def _write_record_inner(self, record: bytes, chunk_stats) -> None:
        self.stats.add(chunk_stats)
        chunk_id = len(self._chunks)
        if not chunk_stats.index_reused:
            self._last_inline = chunk_id
        prefix = encode_uvarint(len(record))
        self._fh.write(prefix)
        self._fh.write(record)
        self._chunks.append(
            ChunkEntry(
                offset=self._pos + len(prefix),
                length=len(record),
                n_values=chunk_stats.n_values,
                inline_index=not chunk_stats.index_reused,
                index_base=self._last_inline,
            )
        )
        self._pos += len(prefix) + len(record)

    # ------------------------------------------------------------------

    def __enter__(self) -> "PrimacyFileWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Finalizing a half-written stream after an exception would
        # publish a file that *looks* complete; abort instead.
        if exc_type is not None:
            self.abort()
        else:
            self.close()

    @property
    def n_chunks(self) -> int:
        """Number of chunks (written or still compressing)."""
        return len(self._chunks) + len(self._inflight)

    def chunk_entries(self) -> tuple[ChunkEntry, ...]:
        """The written chunk table (complete only after :meth:`close`).

        Sharded-archive packing builds its global catalog from each
        shard writer's table, so the rows are exposed read-only here
        rather than re-parsed out of the finished file's footer.
        """
        if not self._closed:
            raise ValueError("chunk table is complete only after close()")
        return tuple(self._chunks)
