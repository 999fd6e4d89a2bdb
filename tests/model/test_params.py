"""Tests for model parameter dataclasses (Tables I/II)."""

from __future__ import annotations

import pytest

from repro.model import ModelInputs, ModelOutputs, StepTimes


def _inputs(**overrides) -> ModelInputs:
    defaults = dict(
        chunk_bytes=3e6,
        rho=8.0,
        network_bps=34e6,
        disk_write_bps=34e6,
        preconditioner_bps=400e6,
        compressor_bps=18e6,
        alpha1=0.25,
        alpha2=0.3,
        sigma_ho=0.2,
        sigma_lo=0.8,
    )
    defaults.update(overrides)
    return ModelInputs(**defaults)


class TestModelInputs:
    def test_validation_positive(self):
        with pytest.raises(ValueError):
            _inputs(chunk_bytes=0)
        with pytest.raises(ValueError):
            _inputs(network_bps=-1)

    def test_validation_fractions(self):
        with pytest.raises(ValueError):
            _inputs(alpha1=1.5)
        with pytest.raises(ValueError):
            _inputs(alpha2=-0.1)

    def test_read_fallbacks(self):
        inp = _inputs()
        assert inp.read_disk_bps == inp.disk_write_bps
        assert inp.read_decompressor_bps == inp.compressor_bps
        assert inp.read_repreconditioner_bps == inp.preconditioner_bps

    def test_read_overrides(self):
        inp = _inputs(disk_read_bps=100e6, decompressor_bps=50e6)
        assert inp.read_disk_bps == 100e6
        assert inp.read_decompressor_bps == 50e6

    def test_compressed_fraction_formula(self):
        inp = _inputs(alpha1=0.25, alpha2=0.5, sigma_ho=0.1, sigma_lo=0.5,
                      metadata_bytes=0.0)
        expected = 0.25 * 0.1 + 0.5 * 0.75 * 0.5 + 0.5 * 0.75
        assert inp.compressed_fraction == pytest.approx(expected)

    def test_metadata_adds_to_fraction(self):
        base = _inputs(metadata_bytes=0.0).compressed_fraction
        heavy = _inputs(metadata_bytes=3e5).compressed_fraction
        assert heavy == pytest.approx(base + 0.1)


class TestModelOutputs:
    def test_t_total_is_sum(self):
        out = ModelOutputs(
            t_precondition1=1.0,
            t_precondition2=2.0,
            t_compress1=3.0,
            t_compress2=4.0,
            t_transfer=5.0,
            t_write=6.0,
        )
        step = out.step(_inputs())
        assert step.t_compute == 10.0  # Eqns 7-10 run on the compute nodes
        assert step.t_total == 21.0

    def test_throughput_eqn3(self):
        inp = _inputs()
        out = ModelOutputs(t_write=1.5)
        # tau = rho * C / t_total = 8 * 3e6 / 1.5
        assert out.throughput_bps(inp) == pytest.approx(16e6)
        assert out.throughput_mbps(inp) == pytest.approx(16.0)

    def test_zero_time_infinite_throughput(self):
        assert ModelOutputs().throughput_bps(_inputs()) == float("inf")

    def test_step_carries_bytes(self):
        inp = _inputs()
        step = ModelOutputs(out_fraction=0.25).step(inp)
        assert step.original_bytes == 8 * 3e6
        assert step.payload_bytes == 2 * 3e6
        assert step.compressed_fraction == 0.25
        assert step.rho == 8.0


class TestStepTimes:
    def test_sum_and_pipelined_forms(self):
        step = StepTimes(
            original_bytes=12.0,
            payload_bytes=6.0,
            t_compute=3.0,
            t_transfer=1.0,
            t_disk=1.5,
        )
        assert step.t_total == 5.5  # Eqns 6/13
        assert step.t_steady == 3.0  # compute hides the 2.5 s I/O stage
        assert step.bottleneck == "compute"
        # Fill one compute, three steady steps, drain one I/O stage.
        assert step.makespan(4) == 3.0 + 3 * 3.0 + 2.5
        assert step.throughput_bps == 12.0 / 5.5
        assert step.pipelined_throughput_bps(4) == 48.0 / 14.5
