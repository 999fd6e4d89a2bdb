"""Tests for model calibration from measured runs."""

from __future__ import annotations

import pytest

from repro.compressors import evaluate_codec, get_codec
from repro.core import PrimacyCompressor, PrimacyConfig
from repro.model import (
    calibrate_from_metrics,
    calibrate_from_stats,
    predict_compressed_write,
)

_MACHINE = dict(
    chunk_bytes=32 * 1024.0,
    rho=8.0,
    network_bps=10e6,
    disk_write_bps=10e6,
)


class TestCalibrateFromStats:
    def test_parameters_transfer(self, smooth_doubles):
        compressor = PrimacyCompressor(PrimacyConfig(chunk_bytes=32 * 1024))
        _, stats = compressor.compress(smooth_doubles)
        inputs = calibrate_from_stats(stats, **_MACHINE)
        assert inputs.alpha1 == pytest.approx(stats.alpha1)
        assert inputs.alpha2 == pytest.approx(stats.alpha2)
        assert inputs.sigma_ho == pytest.approx(stats.sigma_ho)
        assert inputs.sigma_lo == pytest.approx(stats.sigma_lo)
        assert inputs.preconditioner_bps == pytest.approx(
            stats.preconditioner_mbps * 1e6
        )

    def test_model_size_prediction_close_to_actual(self, obs_temp_small):
        """The model's compressed-fraction must track the real container."""
        compressor = PrimacyCompressor(PrimacyConfig(chunk_bytes=32 * 1024))
        out, stats = compressor.compress(obs_temp_small)
        inputs = calibrate_from_stats(stats, **_MACHINE)
        predicted = predict_compressed_write(inputs).out_fraction
        actual = len(out) / len(obs_temp_small)
        assert predicted == pytest.approx(actual, rel=0.15)


class TestCalibrateFromMetrics:
    def test_vanilla_is_single_stage(self, smooth_doubles):
        metrics = evaluate_codec(get_codec("pyzlib"), smooth_doubles)
        inputs = calibrate_from_metrics(metrics, **_MACHINE)
        assert inputs.alpha1 == 1.0
        assert inputs.alpha2 == 0.0
        assert inputs.sigma_ho == pytest.approx(metrics.sigma)
        assert inputs.preconditioner_bps == float("inf")
        # No preconditioner time in the prediction.
        out = predict_compressed_write(inputs)
        assert out.t_precondition1 == 0.0
        assert out.t_precondition2 == 0.0
