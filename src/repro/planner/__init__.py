"""Per-chunk adaptive codec/preconditioner planner (``--auto``).

The paper's premise -- sample first, decide, then spend compute --
applied per chunk: a small word-aligned prefix of each chunk is pushed
through every candidate ``(codec, split-width, linearization)``
configuration, each probe is scored with the Sec-III cost model
(measured ratio x predicted end-to-end throughput), and the winner
compresses the full chunk.  The decision is serialized into the chunk
record itself (:mod:`repro.planner.record`), so decompression needs no
planner state.

Layout:

* :mod:`repro.planner.candidates` -- :class:`Candidate`,
  :class:`PlannerConfig`, and the default candidate space;
* :mod:`repro.planner.cost` -- the calibrated ratio x throughput score;
* :mod:`repro.planner.record` -- self-describing planned-record framing;
* :mod:`repro.planner.planner` -- :class:`ChunkPlanner` (probe, score,
  pick, compress) and the per-chunk :class:`Decision`.

A :class:`PlannerConfig` is a setting of the compressors that frame
chunks, not a compressor of its own: pass it as ``planner=`` to
:class:`repro.parallel.ParallelCompressor` (PRIM containers, probing
inside the workers), :class:`repro.storage.PrimacyFileWriter` or
:class:`repro.storage.ShardedArchiveWriter`.
"""

from repro.planner.candidates import (
    DEFAULT_CANDIDATES,
    Candidate,
    PlannerConfig,
)
from repro.planner.planner import ChunkPlanner, Decision, overhead_fraction

__all__ = [
    "Candidate",
    "PlannerConfig",
    "DEFAULT_CANDIDATES",
    "ChunkPlanner",
    "Decision",
    "overhead_fraction",
]
