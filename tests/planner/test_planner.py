"""ChunkPlanner behavior: scoring, determinism, probe reuse."""

from __future__ import annotations

import pytest

from repro.core.primacy import PrimacyConfig
from repro.planner import (
    Candidate,
    ChunkPlanner,
    PlannerConfig,
    overhead_fraction,
)
from repro.planner.cost import STATIC_CODEC_MBPS, STATIC_PRECONDITIONER_MBPS


class TestConfigValidation:
    def test_requires_candidates(self):
        with pytest.raises(ValueError):
            PlannerConfig(candidates=())

    def test_requires_per_chunk_base(self):
        from repro.core import IndexReusePolicy

        base = PrimacyConfig(index_policy=IndexReusePolicy.FIRST_CHUNK)
        with pytest.raises(ValueError):
            PlannerConfig(base=base)

    def test_rejects_nonpositive_rates(self):
        with pytest.raises(ValueError):
            PlannerConfig(network_mbps=0.0)

    def test_probe_bytes_resolution(self):
        cfg = PlannerConfig()
        # Auto mode clamps chunk//512 into [2 KiB, 16 KiB], word-aligned.
        assert cfg.resolved_probe_bytes(64 * 1024) == 2048
        assert cfg.resolved_probe_bytes(2 << 20) == 4096
        assert cfg.resolved_probe_bytes(16 << 20) == 16384
        # Never longer than the chunk itself.
        assert cfg.resolved_probe_bytes(1000) == 1000 - (1000 % 8)
        explicit = PlannerConfig(probe_bytes=8192)
        assert explicit.resolved_probe_bytes(1 << 20) == 8192

    def test_static_calibration_covers_registry(self):
        from repro.compressors import available_codecs

        for name in available_codecs():
            assert name in STATIC_CODEC_MBPS, name
        assert STATIC_PRECONDITIONER_MBPS == 330.0


class TestPlanning:
    def test_smooth_data_prefers_real_compression(self, smooth_bytes):
        planner = ChunkPlanner(PlannerConfig(base=PrimacyConfig(chunk_bytes=64 * 1024)))
        best, scores, _, _ = planner.plan(smooth_bytes[: 64 * 1024])
        assert len(scores) == len(planner.config.candidates)
        assert best.candidate.codec != "null"
        # Ratios are projected to full-chunk scale (fixed per-record
        # overhead and the inline index amortized), so compressible data
        # must show a genuine gain over raw.
        assert best.ratio > 1.0

    def test_decisions_are_deterministic(self, mixed_bytes, planner_config):
        chunk = mixed_bytes[: 64 * 1024]
        a = ChunkPlanner(planner_config).compress_chunk(chunk)
        b = ChunkPlanner(planner_config).compress_chunk(chunk)
        assert a[0] == b[0]  # identical record bytes
        assert a[2].candidate == b[2].candidate
        assert a[2].score == b[2].score

    def test_tie_break_prefers_earlier_candidate(self, smooth_bytes):
        # Two equal-valued candidates: scores are exactly equal, the
        # first must win (strictly-greater comparison), so reordering
        # the candidate tuple is the only way to change a tied outcome.
        cand = Candidate(codec="pyzlib", high_bytes=2)
        twin = Candidate(codec="pyzlib", high_bytes=2)
        cfg = PlannerConfig(
            base=PrimacyConfig(chunk_bytes=64 * 1024), candidates=(cand, twin)
        )
        best, scores, _, _ = ChunkPlanner(cfg).plan(smooth_bytes[: 64 * 1024])
        assert scores[0].score == scores[1].score
        assert best is scores[0]

    def test_whole_chunk_probe_reuses_record(
        self, smooth_bytes, planner_config, monkeypatch
    ):
        # A chunk no larger than the probe is coded once per candidate:
        # the winner's trial record is kept, and its time is the
        # compression's, not probe overhead.
        from repro.core.primacy import PrimacyCompressor

        calls = []
        encode = PrimacyCompressor._encode

        def counted(self, prepared):
            calls.append(prepared.n_values)
            return encode(self, prepared)

        monkeypatch.setattr(PrimacyCompressor, "_encode", counted)
        small = smooth_bytes[:2048]
        record, stats, decision = ChunkPlanner(planner_config).compress_chunk(
            small
        )
        assert decision.probe_bytes == len(small)
        assert calls == [len(small) // 8] * len(planner_config.candidates)
        assert decision.compress_seconds > 0.0
        assert record  # still a valid planned record

    def test_decision_fields(self, mixed_bytes, planner_config):
        chunk = mixed_bytes[: 64 * 1024]
        _, _, decision = ChunkPlanner(planner_config).compress_chunk(chunk)
        assert decision.n_candidates == len(planner_config.candidates)
        assert decision.probe_bytes == 2048
        assert decision.probe_seconds > 0.0
        assert decision.compress_seconds > 0.0
        assert decision.score > 0.0
        assert decision.tau_est_mbps > 0.0

    def test_overhead_fraction(self, mixed_bytes, planner_config):
        planner = ChunkPlanner(planner_config)
        decisions = []
        for off in range(0, len(mixed_bytes) - 65536, 65536):
            _, _, d = planner.compress_chunk(mixed_bytes[off : off + 65536])
            decisions.append(d)
        frac = overhead_fraction(decisions)
        assert 0.0 < frac < 1.0
        assert overhead_fraction([]) == 0.0


class TestCostModel:
    """Probe-to-chunk projection and pipelined scoring in repro.planner.cost."""

    def _probe_score(self, chunk, candidate, chunk_len):
        from repro.compressors.lz77 import collect_parse_stats
        from repro.core.primacy import PrimacyCompressor
        from repro.planner.cost import score_candidate

        cfg = PlannerConfig(base=PrimacyConfig(chunk_bytes=max(chunk_len, 1 << 16)))
        probe = chunk[: cfg.resolved_probe_bytes(chunk_len)]
        with collect_parse_stats() as parse:
            record, stats, _ = PrimacyCompressor(
                candidate.config(cfg.base)
            ).compress_chunk(probe)
        return (
            score_candidate(
                candidate, stats, len(record), cfg,
                chunk_len=chunk_len, parse=parse,
            ),
            record,
            stats,
        )

    def test_projection_amortizes_fixed_overhead(self, smooth_bytes):
        # A 2 KiB pyzlib probe carries ~430 B of Huffman table headers
        # plus the inline ID index; the projected full-chunk ratio must
        # beat the raw probe ratio, which is the bug the projection
        # fixes (raw probe ratios made pyzlib look near-useless).
        cand = Candidate(codec="pyzlib", high_bytes=2)
        scored, record, stats = self._probe_score(
            smooth_bytes, cand, 64 * 1024
        )
        raw_probe_ratio = stats.total_in / stats.total_out
        assert scored.ratio > raw_probe_ratio

    def test_projection_is_exact_at_probe_scale(self, smooth_bytes):
        # When the probe covers the whole chunk there is nothing to
        # amortize: the projected output must equal the record length.
        cand = Candidate(codec="pyzlib", high_bytes=2)
        scored, record, _ = self._probe_score(smooth_bytes, cand, 2048)
        assert scored.ratio == pytest.approx(2048 / len(record))

    def test_null_candidate_is_transfer_bound(self, random_bytes):
        # Raw passthrough emits ~chunk_len bytes; at theta=4 MB/s the
        # link, not compute, must set its throughput (the old serial-sum
        # model charged both, double-penalizing every candidate).
        cand = Candidate(codec="null", high_bytes=2)
        scored, _, _ = self._probe_score(random_bytes, cand, 64 * 1024)
        assert scored.tau_mbps <= 4.0 * 1.01

    def test_pyzlib_time_prediction_tracks_parse_work(self, smooth_bytes):
        # The deterministic parse-op predictor must charge chunks whose
        # probes show heavy chain-walking / literal-heavy parses more
        # than easy ones (a static rate table cannot tell them apart --
        # measured pyzlib wall-clock spans 5x across the corpus).
        from repro.compressors.lz77 import ParseStats, collect_parse_stats
        from repro.core.primacy import PrimacyCompressor
        from repro.planner.cost import _compute_seconds

        cand = Candidate(codec="pyzlib", high_bytes=2)
        cfg = PlannerConfig(base=PrimacyConfig(chunk_bytes=1 << 16))
        with collect_parse_stats():
            _, stats, _ = PrimacyCompressor(cand.config(cfg.base)).compress_chunk(
                smooth_bytes[:2048]
            )
        scale = (1 << 16) / stats.total_in
        easy = ParseStats(
            work=150, literal_bytes=100, match_bytes=1900, input_bytes=2048
        )
        hard = ParseStats(
            work=4000, literal_bytes=1800, match_bytes=200, input_bytes=2048
        )
        t_easy = _compute_seconds(cand, stats, 1 << 16, scale, easy)
        t_hard = _compute_seconds(cand, stats, 1 << 16, scale, hard)
        assert t_hard > t_easy
        # And with no parse counters the static-table fallback engages.
        t_static = _compute_seconds(cand, stats, 1 << 16, scale, None)
        assert t_static > 0.0

    def test_scores_are_pure_functions_of_bytes(self, mixed_bytes):
        cand = Candidate(codec="pyzlib", high_bytes=2)
        one, _, _ = self._probe_score(mixed_bytes, cand, 64 * 1024)
        two, _, _ = self._probe_score(mixed_bytes, cand, 64 * 1024)
        assert one.score == two.score
        assert one.ratio == two.ratio
        assert one.tau_mbps == two.tau_mbps


class TestRunParseCandidate:
    """The ``pyzlib`` run parse: scored on the whole chunk, record kept."""

    RLE = Candidate(codec="pyzlib", high_bytes=2, strategy="rle")

    def test_label_and_validation(self):
        assert self.RLE.label == "pyzlib-rle/hb2/col"
        assert self.RLE.whole_chunk
        assert not Candidate(codec="pyzlib").whole_chunk
        assert self.RLE in PlannerConfig().candidates
        with pytest.raises(ValueError):
            Candidate(codec="pylzo", strategy="rle")
        with pytest.raises(ValueError):
            Candidate(codec="pyzlib", strategy="filtered")

    def test_backend_is_the_run_parse(self):
        assert self.RLE.backend().strategy == "rle"
        assert Candidate(codec="pyzlib").backend().strategy == "default"

    def test_scored_on_the_whole_chunk(self, smooth_bytes):
        chunk = smooth_bytes[: 64 * 1024]
        cfg = PlannerConfig(base=PrimacyConfig(chunk_bytes=len(chunk)))
        planner = ChunkPlanner(cfg)
        _, scores, _, _ = planner.plan(chunk)
        (score,) = [s for s in scores if s.candidate == self.RLE]
        record, _, _ = planner._compressor(self.RLE).compress_chunk(chunk)
        # Measured, not projected: the ratio is the whole record's, less
        # the planned header.
        assert score.probe_out == len(record)
        assert score.ratio == pytest.approx(len(chunk) / len(record))

    def test_final_compression_reuses_the_trial_preparation(self, monkeypatch):
        # gts_phi_l goes to the default parse; its final compression codes
        # the preparation the run-parse trial made, so the chunk is
        # prepared once per (trial, split, linearization): the hb2 prefix,
        # the hb1 prefix and the whole chunk.
        from repro.core.primacy import PrimacyCompressor
        from repro.datasets import generate_bytes

        prepares = []
        prepare = PrimacyCompressor._prepare

        def counted(self, chunk, prev_index, prev_freq):
            prepares.append(len(chunk))
            return prepare(self, chunk, prev_index, prev_freq)

        chunk = generate_bytes("gts_phi_l", 8192, seed=2214)
        cfg = PlannerConfig(base=PrimacyConfig(chunk_bytes=len(chunk)))
        monkeypatch.setattr(PrimacyCompressor, "_prepare", counted)
        record, _, decision = ChunkPlanner(cfg).compress_chunk(chunk)
        monkeypatch.undo()
        assert decision.candidate == Candidate(codec="pyzlib", high_bytes=2)
        assert sorted(prepares) == [2048, 2048, len(chunk)]
        plain, _, _ = PrimacyCompressor(
            decision.candidate.config(cfg.base)
        ).compress_chunk(chunk)
        assert record.endswith(plain)
        assert decision.compress_seconds > 0.0

    @staticmethod
    def _num_plasma(chunks: int) -> bytes:
        from repro.datasets import generate_bytes

        return generate_bytes("num_plasma", chunks * 8192, seed=2214)

    def test_num_plasma_picks_the_run_parse(self):
        chunk = self._num_plasma(1)
        cfg = PlannerConfig(base=PrimacyConfig(chunk_bytes=len(chunk)))
        from repro.planner.record import parse_planned_header

        record, stats, decision = ChunkPlanner(cfg).compress_chunk(chunk)
        assert decision.candidate == self.RLE
        # The planned header names plain pyzlib; the kept trial record
        # follows it, and the decision's ratio is that record's.
        codec, _, _, inner = parse_planned_header(record)
        assert codec == "pyzlib"
        assert decision.ratio_est == pytest.approx(len(chunk) / (len(record) - inner))
        assert stats.total_in == len(chunk)

    def test_same_decisions_and_records_across_worker_counts(self):
        from repro.parallel import ParallelCompressor

        data = self._num_plasma(3)
        cfg = PlannerConfig(base=PrimacyConfig(chunk_bytes=64 * 1024))
        with ParallelCompressor(planner=cfg, workers=1) as serial:
            expect, _ = serial.compress(data)
            serial_decisions = serial.decisions
        with ParallelCompressor(planner=cfg, workers=2) as parallel:
            got, _ = parallel.compress(data)
            parallel_decisions = parallel.decisions
        assert [d.candidate for d in serial_decisions] == [self.RLE] * 3
        assert got == expect
        assert [d.candidate for d in parallel_decisions] == [
            d.candidate for d in serial_decisions
        ]
        assert [d.score for d in parallel_decisions] == [
            d.score for d in serial_decisions
        ]
