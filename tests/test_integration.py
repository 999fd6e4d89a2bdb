"""Cross-subsystem integration tests: full workflows end to end."""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.checkpoint import CheckpointReader, CheckpointWriter
from repro.compressors import evaluate_codec, get_codec
from repro.core import (
    IndexReusePolicy,
    PrimacyCodec,
    PrimacyCompressor,
    PrimacyConfig,
)
from repro.datasets import FIGURE4_DATASETS, generate, generate_bytes
from repro.iosim import (
    CodecStrategy,
    NullStrategy,
    PrimacyStrategy,
    StagingEnvironment,
    StagingSimulator,
)
from repro.model import (
    calibrate_from_stats,
    fit_machine,
    predict_base_write,
    predict_compressed_write,
)
from repro.parallel import ParallelCompressor
from repro.storage import PrimacyFileReader, PrimacyFileWriter


class TestFullCompressionMatrix:
    """PRIMACY x backends x datasets, all lossless."""

    @pytest.mark.parametrize("dataset", FIGURE4_DATASETS)
    @pytest.mark.parametrize("backend", ["pyzlib", "pylzo", "huffman"])
    def test_roundtrip(self, dataset, backend):
        data = generate_bytes(dataset, 4096, seed=21)
        codec = PrimacyCodec(
            PrimacyConfig(codec=backend, chunk_bytes=16 * 1024)
        )
        assert codec.decompress(codec.compress(data)) == data


class TestSimulationToModelLoop:
    """Simulate -> fit machine -> predict -> compare (the Sec-III loop)."""

    def test_fitted_model_predicts_compressed_write(self):
        env = StagingEnvironment(
            rho=8,
            network_write_bps=8e6,
            network_read_bps=30e6,
            disk_write_bps=15e6,
            disk_read_bps=50e6,
        )
        sim = StagingSimulator(env)
        data = generate_bytes("num_plasma", 32768, seed=5)

        # Step 1: observe null steps, fit the machine.
        observations = [
            sim.simulate_write(data[: n * 8], NullStrategy())
            for n in (8192, 16384, 32768)
        ]
        fit = fit_machine(observations)
        assert fit.network_bps == pytest.approx(env.network_write_bps, rel=0.01)

        # Step 2: one PRIMACY run calibrates the compression parameters.
        strat = PrimacyStrategy(PrimacyConfig(chunk_bytes=32 * 1024))
        result = sim.simulate_write(data, strat)
        inputs = calibrate_from_stats(
            strat.last_stats,
            chunk_bytes=result.original_bytes / env.rho,
            rho=env.rho,
            network_bps=fit.network_bps,
            disk_write_bps=fit.disk_bps,
        )

        # Step 3: the model must rank strategies like the simulator does.
        pred_null = predict_base_write(inputs).throughput_bps(inputs)
        pred_primacy = predict_compressed_write(inputs).throughput_bps(inputs)
        sim_null = observations[-1].throughput_bps
        sim_primacy = result.throughput_bps
        assert (pred_primacy > pred_null) == (sim_primacy > sim_null)


class TestParallelToStorage:
    """Parallel compression output flows into storage and back."""

    def test_parallel_container_equals_file_content(self):
        data = generate_bytes("obs_error", 16384, seed=9)
        cfg = PrimacyConfig(chunk_bytes=16 * 1024)
        container, _ = ParallelCompressor(cfg, workers=2).compress(data)
        assert PrimacyCompressor(cfg).decompress(container) == data

    def test_prif_after_parallel_stats_consistent(self):
        data = generate_bytes("obs_error", 16384, seed=9)
        cfg = PrimacyConfig(chunk_bytes=16 * 1024)
        _, par_stats = ParallelCompressor(cfg, workers=2).compress(data)
        buf = io.BytesIO()
        with PrimacyFileWriter(buf, cfg) as writer:
            writer.write(data)
        assert writer.stats.alpha2 == pytest.approx(par_stats.alpha2)
        assert writer.stats.sigma_ho == pytest.approx(par_stats.sigma_ho)


class TestCheckpointRestartCycle:
    """Multi-step simulation state survives a full checkpoint cycle."""

    def test_three_step_simulation(self):
        rng = np.random.default_rng(2)
        state = rng.normal(100, 1, (32, 32))
        buf = io.BytesIO()
        history = []
        with CheckpointWriter(buf, PrimacyConfig(chunk_bytes=8 * 1024)) as ckpt:
            for step in range(3):
                state = state + 0.1 * rng.standard_normal(state.shape)
                history.append(state.copy())
                ckpt.write_step(step, {"state": state})

        reader = CheckpointReader(io.BytesIO(buf.getvalue()))
        # Restart from the middle step and replay: must equal the original.
        replay = reader.read(1, "state")
        assert np.array_equal(replay, history[1])
        final = reader.read(2, "state")
        assert np.array_equal(final, history[2])


class TestIndexReuseAcrossSubsystems:
    """Reuse-chain containers survive storage random access AND the
    vanilla in-memory decompressor."""

    def test_correlated_policy_everywhere(self):
        data = generate_bytes("obs_temp", 24000, seed=13)
        cfg = PrimacyConfig(
            chunk_bytes=8 * 1024, index_policy=IndexReusePolicy.CORRELATED
        )
        container, _ = PrimacyCompressor(cfg).compress(data)
        assert PrimacyCompressor().decompress(container) == data

        buf = io.BytesIO()
        with PrimacyFileWriter(buf, cfg) as writer:
            writer.write(data)
        reader = PrimacyFileReader(io.BytesIO(buf.getvalue()))
        # Straight into the last chunk.
        last_n = reader.chunk_entries()[-1].n_values
        start = reader.n_values - last_n
        assert reader.read_values(start, last_n) == data[start * 8 : (start + last_n) * 8]


class TestHeadlineNumbers:
    """The repository's reason to exist, in one test."""

    def test_primacy_improves_ratio_and_speed_on_hard_data(self):
        data = generate_bytes("gts_chkp_zion", 16384, seed=1)
        codecs = [
            get_codec("pyzlib"),
            PrimacyCodec(PrimacyConfig(chunk_bytes=len(data))),
        ]
        # One timed round trip of each codec per round, in alternation, so
        # a slow phase of a shared host hits both; the best of 5 counts.
        rounds = [[evaluate_codec(c, data) for c in codecs] for _ in range(5)]
        mz, mp = rounds[0]
        assert mp.compression_ratio > mz.compression_ratio * 1.05
        for speed in ("compression_mbps", "decompression_mbps"):
            best = [max(getattr(r[i], speed) for r in rounds) for i in (0, 1)]
            assert best[1] > best[0], speed
