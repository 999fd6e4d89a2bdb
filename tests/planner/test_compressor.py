"""ParallelCompressor(planner=...): planned container round-trips and
reproducibility."""

from __future__ import annotations

import pytest

from repro.core.primacy import PrimacyCompressor, split_container
from repro.parallel import ParallelCompressor


class TestRoundTrip:
    def test_plain_decompressor_reads_planned_container(
        self, mixed_bytes, planner_config
    ):
        # The whole point of self-describing records: a stock
        # PrimacyCompressor with no planner state restores the bytes.
        with ParallelCompressor(planner=planner_config, workers=1) as pc:
            blob, stats = pc.compress(mixed_bytes)
        assert PrimacyCompressor().decompress(blob) == mixed_bytes
        assert stats.original_bytes == len(mixed_bytes)
        assert stats.container_bytes == len(blob)

    def test_parallel_decompressor_reads_planned_container(
        self, mixed_bytes, planner_config
    ):
        with ParallelCompressor(planner=planner_config, workers=1) as pc:
            blob, _ = pc.compress(mixed_bytes)
        # Planned records carry their own index, so the records decode
        # independently, in the workers.
        assert split_container(blob)[2]
        with ParallelCompressor(workers=2) as dec:
            assert dec.decompress(blob) == mixed_bytes
            assert dec.engine.stats.tasks == len(split_container(blob)[1])

    def test_decisions_cover_every_chunk(self, mixed_bytes, planner_config):
        with ParallelCompressor(planner=planner_config, workers=1) as pc:
            _, stats = pc.compress(mixed_bytes)
            decisions = pc.decisions
        assert len(decisions) == len(stats.chunks)
        assert all(
            d.n_candidates == len(planner_config.candidates)
            for d in decisions
        )

    def test_empty_and_tail_only_inputs(self, planner_config):
        with ParallelCompressor(planner=planner_config, workers=1) as pc:
            for payload in (b"", b"abc"):
                blob, _ = pc.compress(payload)
                assert PrimacyCompressor().decompress(blob) == payload


class TestReproducibility:
    def test_byte_identical_across_runs(self, mixed_bytes, planner_config):
        with ParallelCompressor(planner=planner_config, workers=1) as pc:
            one, _ = pc.compress(mixed_bytes)
        with ParallelCompressor(planner=planner_config, workers=1) as pc:
            two, _ = pc.compress(mixed_bytes)
        assert one == two

    def test_byte_identical_across_worker_counts(
        self, mixed_bytes, planner_config
    ):
        with ParallelCompressor(planner=planner_config, workers=1) as serial:
            expect, _ = serial.compress(mixed_bytes)
            serial_decisions = serial.decisions
        with ParallelCompressor(planner=planner_config, workers=2) as parallel:
            got, _ = parallel.compress(mixed_bytes)
            parallel_decisions = parallel.decisions
        assert got == expect
        assert [d.candidate for d in parallel_decisions] == [
            d.candidate for d in serial_decisions
        ]
        assert [d.score for d in parallel_decisions] == [
            d.score for d in serial_decisions
        ]

    def test_workers_conflicts_with_shared_engine(self, planner_config):
        from repro.parallel.engine import ParallelEngine

        engine = ParallelEngine(planner_config.base, workers=1)
        try:
            with pytest.raises(ValueError):
                ParallelCompressor(
                    planner=planner_config, workers=3, engine=engine
                )
        finally:
            engine.close()
