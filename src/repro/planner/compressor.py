"""Planned container compression, serial or fanned out over workers.

:class:`PlannedCompressor` mirrors
:class:`repro.parallel.pool.ParallelCompressor` with a
:class:`~repro.planner.candidates.PlannerConfig` instead of a fixed
:class:`~repro.core.PrimacyConfig`: chunks travel to
:class:`~repro.parallel.engine.ParallelEngine` workers as
``KIND_PLAN_COMPRESS`` tasks, each worker runs the whole candidate
sweep *and* the winning compression locally (no serialization of the
probe), and planned records come back in order.

The output container is byte-identical across runs and worker counts --
decisions are a pure function of probe byte counts.
"""

from __future__ import annotations

from repro.core.chunking import Chunker
from repro.core.primacy import PrimacyStats, encode_container_header
from repro.parallel.engine import KIND_PLAN_COMPRESS, ParallelEngine
from repro.planner.candidates import PlannerConfig
from repro.planner.planner import Decision
from repro.util.buffers import as_view
from repro.util.varint import encode_uvarint

__all__ = ["PlannedCompressor"]


class PlannedCompressor:
    """Compress with a per-chunk planner, optionally in parallel.

    Parameters
    ----------
    config:
        Planner configuration (candidate space, probe size, cost-model
        deployment point).
    workers:
        Pool size; defaults to the CPU count.  ``workers=1`` runs the
        planner inline.
    engine:
        Share an existing :class:`ParallelEngine` instead of owning one;
        the caller then owns its lifetime.
    max_pending:
        In-flight chunk window for the owned engine.

    ``last_decisions`` holds the per-chunk :class:`Decision` list of the
    most recent :meth:`compress` call, in chunk order.
    """

    def __init__(
        self,
        config: PlannerConfig | None = None,
        workers: int | None = None,
        max_pending: int | None = None,
        engine: ParallelEngine | None = None,
    ) -> None:
        self.config = config or PlannerConfig()
        if engine is not None:
            self._engine = engine
            self._owns_engine = False
            if workers is not None and workers != engine.workers:
                raise ValueError("workers conflicts with the provided engine")
        else:
            self._engine = ParallelEngine(
                self.config.base, workers=workers, max_pending=max_pending
            )
            self._owns_engine = True
        base = self.config.base
        self._chunker = Chunker(base.chunk_bytes, base.word_bytes)
        self.last_decisions: list[Decision] = []

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

    def __enter__(self) -> "PlannedCompressor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------

    def compress_iter(self, data):
        """Yield ``(record, PrimacyChunkStats, Decision)`` per chunk, in order.

        Chunks are submitted up to the engine's ``max_pending`` window
        ahead of the consumer; probing and compressing both happen in
        the workers.  Single-chunk inputs run inline.
        """
        chunks, _ = self._chunker.split(data)
        if len(chunks) <= 1 or self.workers == 1:
            for chunk in chunks:
                yield self._engine.run_inline(
                    KIND_PLAN_COMPRESS, chunk.data, self.config
                )
            return
        yield from self._engine.map_ordered(
            KIND_PLAN_COMPRESS, (c.data for c in chunks), self.config
        )

    def compress(self, data) -> tuple[bytes, PrimacyStats]:
        """Planner-driven equivalent of :meth:`PrimacyCompressor.compress`.

        The container framing (header, record table, tail) matches the
        serial compressor's byte-for-byte; each record is planned and
        self-describing, so ``PrimacyCompressor().decompress`` restores
        the bytes with no planner state.
        """
        view = as_view(data)
        stats = PrimacyStats(original_bytes=len(view))
        base = self.config.base
        n_words = len(view) // base.word_bytes
        tail = bytes(view[n_words * base.word_bytes :])
        n_chunks = self._chunker.n_chunks(len(view))

        out = bytearray(
            encode_container_header(base, len(view), tail, n_chunks)
        )
        decisions: list[Decision] = []
        for record, chunk_stats, decision in self.compress_iter(view):
            out += encode_uvarint(len(record))
            out += record
            stats.add(chunk_stats)
            decisions.append(decision)
        stats.container_bytes = len(out)
        self.last_decisions = decisions
        return bytes(out), stats
