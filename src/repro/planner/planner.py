"""The per-chunk planner: probe, score, pick, compress.

:class:`ChunkPlanner` owns one :class:`~repro.core.PrimacyCompressor`
per candidate (all sharing one scratch arena, built lazily) and exposes
the same ``compress_chunk``-shaped interface the parallel engine and
the storage writer drive -- which is what lets planning fan out through
:class:`~repro.parallel.engine.ParallelEngine` workers with the probe
running inside the worker, not serialized in the parent.

Per chunk it compresses a word-aligned prefix under every candidate,
scores each probe with :func:`repro.planner.cost.score_candidate`, and
compresses the full chunk under the winner (ties go to the earlier
candidate, so decisions are deterministic).  A candidate whose
:attr:`~repro.planner.candidates.Candidate.whole_chunk` is set (the
``pyzlib`` run parse, whose ratio a prefix cannot show) is tried on the
whole chunk instead.  Whenever the winner's trial covered the whole
chunk -- that candidate, or any candidate when the probe is the chunk --
its record is reused verbatim, and its time counts as the compression,
not as probe overhead.

Candidates that differ in the codec alone share one preparation of each
trial (:meth:`~repro.core.PrimacyCompressor.prepare_chunk`: split,
frequency analysis, ID mapping, ISOBAR analysis, checksum), and the
final compression codes the whole-chunk preparation when the winner's
split and linearization match it, so that work is done once per chunk.

With :mod:`repro.obs` enabled each decision lands in a labelled
``planner.decisions`` counter (the decision histogram over candidates),
``planner.probe`` / ``planner.compress`` spans, and probe-overhead
counters that :func:`overhead_fraction` summarizes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.compressors.lz77 import collect_parse_stats
from repro.core.kernels import ScratchArena
from repro.core.primacy import (
    PreparedChunk,
    PrimacyChunkStats,
    PrimacyCompressor,
)
from repro.obs import metrics as _obs_metrics
from repro.obs import trace as _obs_trace
from repro.obs.runtime import STATE as _OBS_STATE
from repro.planner.candidates import Candidate, PlannerConfig
from repro.planner.cost import CandidateScore, score_candidate
from repro.planner.record import encode_planned_record

__all__ = ["Decision", "ChunkPlanner", "overhead_fraction"]


@dataclass(frozen=True)
class Decision:
    """One chunk's planning outcome (picklable; rides the result queue)."""

    candidate: Candidate
    score: float
    ratio_est: float  # probe-measured compression ratio of the winner
    tau_est_mbps: float  # model-predicted end-to-end throughput
    probe_bytes: int  # prefix bytes probed per candidate
    probe_seconds: float  # wall time of the sweep, less a kept trial's
    compress_seconds: float  # wall time of the compression that was kept
    n_candidates: int


class ChunkPlanner:
    """Probe-and-pick compressor over a candidate space.

    Drop-in for the chunk-level compressor interface: ``compress_chunk``
    returns ``(record, stats, decision)`` where ``record`` is a planned
    record (self-describing; see :mod:`repro.planner.record`) and
    ``stats`` are the winning candidate's full-chunk
    :class:`~repro.core.PrimacyChunkStats`.
    """

    def __init__(
        self,
        config: PlannerConfig | None = None,
        *,
        arena: ScratchArena | None = None,
    ) -> None:
        self.config = config or PlannerConfig()
        self.arena = arena if arena is not None else ScratchArena()
        self._compressors: dict[Candidate, PrimacyCompressor] = {}

    def _compressor(self, candidate: Candidate) -> PrimacyCompressor:
        comp = self._compressors.get(candidate)
        if comp is None:
            comp = PrimacyCompressor(
                candidate.config(self.config.base),
                arena=self.arena,
                codec=candidate.backend(),
            )
            self._compressors[candidate] = comp
        return comp

    # ------------------------------------------------------------------

    def plan(
        self, chunk: bytes | memoryview
    ) -> tuple[CandidateScore, list[CandidateScore], float, tuple | None]:
        """Try every candidate on a prefix of ``chunk``, or on all of it.

        Returns ``(winner, all_scores, probe_seconds, head_start)``.
        ``head_start`` is what the winner's compression can start from,
        with the seconds the sweep already spent on it: ``((record,
        stats), seconds)`` when its trial covered the whole chunk,
        ``(prepared, seconds)`` when a whole-chunk trial prepared the
        chunk under the winner's split and linearization (see
        :meth:`~repro.core.PrimacyCompressor.prepare_chunk`), else
        ``None``.  ``probe_seconds`` excludes those seconds.
        """
        probe_len = self.config.resolved_probe_bytes(len(chunk))
        prefix = memoryview(chunk)[:probe_len]
        scores: list[CandidateScore] = []
        kept: list[tuple | None] = []
        # Candidates that differ in the codec alone share one preparation
        # of each trial: (trial bytes, split, linearization) -> (prepared,
        # seconds).
        prepared: dict[tuple, tuple[PreparedChunk, float]] = {}
        sweep = 0.0
        for cand in self.config.candidates:
            comp = self._compressor(cand)
            trial = chunk if cand.whole_chunk else prefix
            key = (len(trial), cand.high_bytes, cand.linearization)
            t0 = time.perf_counter()
            if key not in prepared:
                done = comp.prepare_chunk(trial)
                prepared[key] = (done, time.perf_counter() - t0)
                t0 = time.perf_counter()
            with collect_parse_stats() as parse:
                record, stats = comp.encode_prepared(prepared[key][0])
            scores.append(
                score_candidate(
                    cand,
                    stats,
                    len(record),
                    self.config,
                    chunk_len=len(chunk),
                    parse=parse,
                )
            )
            seconds = time.perf_counter() - t0
            sweep += seconds
            whole = len(trial) == len(chunk)
            kept.append(((record, stats), seconds) if whole else None)
        sweep += sum(seconds for _, seconds in prepared.values())
        best = scores[0]
        best_i = 0
        for i, cs in enumerate(scores[1:], start=1):
            if cs.score > best.score:
                best, best_i = cs, i
        winner = best.candidate
        full = prepared.get((len(chunk), winner.high_bytes, winner.linearization))
        head_start = kept[best_i]
        if head_start is not None:
            # The winner's trial covered the chunk, on the ``full`` preparation.
            head_start = (head_start[0], head_start[1] + full[1])
        else:
            head_start = full
        if head_start is not None:
            sweep -= head_start[1]
        return best, scores, sweep, head_start

    def compress_chunk(
        self, chunk: bytes | memoryview
    ) -> tuple[bytes, PrimacyChunkStats, Decision]:
        """Plan and compress one word-aligned chunk into a planned record."""
        best, scores, probe_seconds, head_start = self.plan(chunk)
        comp = self._compressor(best.candidate)
        t0 = time.perf_counter()
        if head_start is None:
            inner, stats, _ = comp.compress_chunk(chunk)
            spent = 0.0
        else:
            start, spent = head_start
            if isinstance(start, PreparedChunk):
                inner, stats = comp.encode_prepared(start)
            else:
                inner, stats = start
        compress_seconds = spent + time.perf_counter() - t0
        record = encode_planned_record(best.candidate, inner)
        decision = Decision(
            candidate=best.candidate,
            score=best.score,
            ratio_est=best.ratio,
            tau_est_mbps=best.tau_mbps,
            probe_bytes=self.config.resolved_probe_bytes(len(chunk)),
            probe_seconds=probe_seconds,
            compress_seconds=compress_seconds,
            n_candidates=len(scores),
        )
        if _OBS_STATE.enabled:
            self._obs_record(decision)
        return record, stats, decision

    @staticmethod
    def _obs_record(decision: Decision) -> None:
        reg = _obs_metrics.registry()
        reg.counter("planner.chunks").inc()
        reg.counter("planner.probe_seconds").inc(decision.probe_seconds)
        reg.counter("planner.compress_seconds").inc(decision.compress_seconds)
        reg.counter(
            "planner.decisions", candidate=decision.candidate.label
        ).inc()
        reg.histogram(
            "planner.ratio_est",
            boundaries=_obs_metrics.DEFAULT_RATIO_BUCKETS,
        ).observe(decision.ratio_est)
        _obs_trace.record_span(
            "planner.probe",
            decision.probe_seconds,
            candidates=decision.n_candidates,
            probe_bytes=decision.probe_bytes,
        )
        if decision.compress_seconds:
            _obs_trace.record_span(
                "planner.compress",
                decision.compress_seconds,
                candidate=decision.candidate.label,
            )


def overhead_fraction(decisions: list[Decision]) -> float:
    """Probe wall time as a fraction of total compress wall time."""
    probe = sum(d.probe_seconds for d in decisions)
    total = probe + sum(d.compress_seconds for d in decisions)
    if total <= 0:
        return 0.0
    return probe / total
