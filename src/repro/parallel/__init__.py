"""Parallel in-situ compression.

The paper's end-to-end gains rest on compression running *in parallel*
across compute nodes while the I/O path serializes.  On a single host the
same structure applies across cores: chunks are independent under the
PER_CHUNK index policy, so they can be compressed by a process pool and
reassembled into a byte-identical container.

* :class:`~repro.parallel.engine.ParallelEngine` -- persistent,
  lazily-started worker pool with zero-copy shared-memory fan-out and
  per-stage :class:`~repro.parallel.engine.PoolStats`.  The pipelined
  storage and checkpoint writers submit their chunks to it directly.
* :class:`~repro.parallel.pool.ParallelCompressor` -- drop-in parallel
  version of :meth:`repro.core.PrimacyCompressor.compress` (static, or
  planned per chunk with ``planner=``) and of its ``decompress``.
"""

from repro.parallel.engine import EngineError, ParallelEngine, PoolStats
from repro.parallel.pool import ParallelCompressor

__all__ = [
    "EngineError",
    "ParallelCompressor",
    "ParallelEngine",
    "PoolStats",
]
