"""Parallel container compression and decompression on the shared-memory
engine.

Chunk records are independent under
:attr:`repro.core.idmap.IndexReusePolicy.PER_CHUNK` (each chunk carries
its own inline index), so the compressor can fan chunks out to worker
processes and frame the records in order.  The output is
**byte-identical** to the serial :class:`repro.core.PrimacyCompressor`
container.  With ``planner=`` each worker runs the per-chunk planner's
candidate sweep *and* the winning compression locally, and the records
are planned ones, still byte-identical across worker counts: decisions
are a pure function of probe byte counts.

Decompression is the same fan-out in reverse: the record table is split
serially (a cheap varint walk, :func:`repro.core.primacy.split_container`)
and the records are decoded by the workers, then joined in order.

The heavy lifting lives in :class:`repro.parallel.engine.ParallelEngine`:
the worker pool persists across calls and chunk payloads travel through
recycled shared-memory segments instead of pickles.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.chunking import Chunker
from repro.core.idmap import IndexReusePolicy
from repro.core.primacy import (
    PrimacyCompressor,
    PrimacyConfig,
    PrimacyStats,
    frame_container,
    split_container,
)
from repro.parallel.engine import (
    KIND_COMPRESS,
    KIND_DECOMPRESS,
    KIND_PLAN_COMPRESS,
    ParallelEngine,
)
from repro.util.buffers import as_view

if TYPE_CHECKING:
    from repro.planner.candidates import PlannerConfig
    from repro.planner.planner import Decision

__all__ = ["ParallelCompressor"]


class ParallelCompressor:
    """Compress and decompress with a persistent pool of worker processes.

    Parameters
    ----------
    config:
        Pipeline configuration; must use ``IndexReusePolicy.PER_CHUNK``
        (reuse chains serialize chunks by construction).
    planner:
        A :class:`repro.planner.PlannerConfig` instead of ``config``
        (mutually exclusive, as for the file writers): every chunk is
        planned and written as a self-describing planned record.
    workers:
        Pool size; defaults to the CPU count.  ``workers=1`` runs inline.
    engine:
        Share an existing :class:`ParallelEngine` instead of owning one;
        the caller then owns its lifetime.
    max_pending:
        In-flight chunk window for the owned engine.

    The worker pool starts lazily on the first multi-chunk call and
    persists until :meth:`close` (also a context manager).  With
    ``planner=``, :attr:`decisions` holds the per-chunk
    :class:`repro.planner.Decision` list of the latest :meth:`compress`
    call, in chunk order.
    """

    def __init__(
        self,
        config: PrimacyConfig | None = None,
        workers: int | None = None,
        max_pending: int | None = None,
        engine: ParallelEngine | None = None,
        planner: PlannerConfig | None = None,
    ) -> None:
        if planner is not None and config is not None:
            raise ValueError("pass config= or planner=, not both")
        self.planner = planner
        self.decisions: list[Decision] = []
        if planner is not None:
            self.config = planner.base
        elif config is not None:
            self.config = config
        else:
            self.config = engine.config if engine is not None else PrimacyConfig()
        if self.config.index_policy is not IndexReusePolicy.PER_CHUNK:
            raise ValueError(
                "parallel compression requires the PER_CHUNK index policy; "
                "reuse chains make chunks order-dependent"
            )
        if engine is not None:
            self._engine = engine
            self._owns_engine = False
            if workers is not None and workers != engine.workers:
                raise ValueError("workers conflicts with the provided engine")
        else:
            self._engine = ParallelEngine(
                self.config, workers=workers, max_pending=max_pending
            )
            self._owns_engine = True
        self._chunker = Chunker(self.config.chunk_bytes, self.config.word_bytes)

    @property
    def engine(self) -> ParallelEngine:
        """The underlying engine (for stats or sharing)."""
        return self._engine

    @property
    def workers(self) -> int:
        """Pool size."""
        return self._engine.workers

    def close(self) -> None:
        """Shut the owned engine down (no-op for shared engines)."""
        if self._owns_engine:
            self._engine.close()

    def __enter__(self) -> "ParallelCompressor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------

    def compress(self, data) -> tuple[bytes, PrimacyStats]:
        """Parallel equivalent of :meth:`PrimacyCompressor.compress`.

        Accepts ``bytes``/``bytearray``/``memoryview``/NumPy buffers
        without copying the payload.  Chunks are submitted up to the
        engine's ``max_pending`` window ahead of the framing; inputs of
        one chunk run inline (pool start is not worth one task).
        """
        view = as_view(data)
        chunks, tail = self._chunker.split(view)
        if self.planner is not None:
            kind, task_config = KIND_PLAN_COMPRESS, self.planner
        else:
            kind, task_config = KIND_COMPRESS, self.config
        if len(chunks) <= 1 or self.workers == 1:
            results = (
                self._engine.run_inline(kind, c.data, task_config)
                for c in chunks
            )
        else:
            results = self._engine.map_ordered(
                kind, (c.data for c in chunks), task_config
            )
        stats = PrimacyStats(original_bytes=len(view))
        records, decisions = [], []
        # (record, stats) per chunk, plus the Decision of a planned one.
        for record, chunk_stats, *decision in results:
            records.append(record)
            stats.add(chunk_stats)
            decisions += decision
        out = frame_container(self.config, len(view), tail, records)
        stats.container_bytes = len(out)
        self.decisions = decisions
        return out, stats

    def decompress(self, data: bytes | memoryview) -> bytes:
        """Invert :meth:`compress` (static or planned) and
        :meth:`PrimacyCompressor.compress` exactly.

        The codec, widths and linearization come from the container
        header, so one instance decodes containers of any configuration.
        A single record, ``workers=1``, or a record that reuses its
        predecessor's index (an order-dependent chain) takes the serial
        decoder.
        """
        header, records, independent = split_container(data)
        container_config = header.to_config(self.config)
        if len(records) <= 1 or self.workers == 1 or not independent:
            return PrimacyCompressor(container_config).decompress(data)
        return header.join(
            self._engine.map_ordered(KIND_DECOMPRESS, records, container_config)
        )
