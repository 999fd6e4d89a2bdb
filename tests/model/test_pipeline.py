"""Tests for the write/read performance models (Eqns 3-13)."""

from __future__ import annotations

import pytest

from repro.model import (
    ModelInputs,
    predict_base_read,
    predict_base_write,
    predict_compressed_read,
    predict_compressed_write,
)


def _inputs(**overrides) -> ModelInputs:
    defaults = dict(
        chunk_bytes=3e6,
        rho=8.0,
        network_bps=30e6,
        disk_write_bps=40e6,
        preconditioner_bps=200e6,
        compressor_bps=20e6,
        alpha1=0.25,
        alpha2=0.4,
        sigma_ho=0.1,
        sigma_lo=0.7,
    )
    defaults.update(overrides)
    return ModelInputs(**defaults)


class TestBaseCase:
    def test_eqn4_transfer(self):
        out = predict_base_write(_inputs())
        # (1 + rho) * C / theta = 9 * 3e6 / 30e6
        assert out.t_transfer == pytest.approx(0.9)

    def test_eqn5_write(self):
        out = predict_base_write(_inputs())
        # rho * C / mu_w = 8 * 3e6 / 40e6
        assert out.t_write == pytest.approx(0.6)

    def test_eqn6_total_and_eqn3_throughput(self):
        inp = _inputs()
        out = predict_base_write(inp)
        assert out.step(inp).t_total == pytest.approx(1.5)
        assert out.throughput_mbps(inp) == pytest.approx(16.0)

    def test_base_read_mirrors_write(self):
        inp = _inputs(disk_read_bps=40e6)
        w = predict_base_write(inp)
        r = predict_base_read(inp)
        assert r.step(inp).t_total == pytest.approx(w.step(inp).t_total)


class TestCompressedWrite:
    def test_eqn7_to_10_stage_times(self):
        inp = _inputs()
        out = predict_compressed_write(inp)
        c = inp.chunk_bytes
        assert out.t_precondition1 == pytest.approx(c / 200e6)  # Eqn 7
        assert out.t_precondition2 == pytest.approx(0.75 * c / 200e6)  # Eqn 8
        assert out.t_compress1 == pytest.approx(0.25 * c / 20e6)  # Eqn 9
        assert out.t_compress2 == pytest.approx(0.4 * 0.75 * c / 20e6)  # Eqn 10

    def test_eqn11_transfer_scales_with_compressed_fraction(self):
        inp = _inputs()
        out = predict_compressed_write(inp)
        frac = out.out_fraction
        expected = 0.25 * 0.1 + 0.4 * 0.75 * 0.7 + 0.6 * 0.75
        assert frac == pytest.approx(expected)
        assert out.t_transfer == pytest.approx(9 * 3e6 * frac / 30e6)
        assert out.t_write == pytest.approx(8 * 3e6 * frac / 40e6)  # Eqn 12

    @pytest.mark.parametrize(
        "alpha2, sigma_lo, gap",
        [
            (0.3, 0.8, 0.161),
            (0.3, 0.95, 0.034),
            (0.3, 0.98, 0.013),
            (0.0, 0.8, 0.233),
            (0.0, 0.95, 0.050),
            (0.0, 0.98, 0.019),
        ],
    )
    def test_printed_eqn11_overstates_tau(self, alpha2, sigma_lo, gap):
        """As printed, Eqns 11/12 shrink the raw remainder by sigma_lo too.

        The oracle evaluates the printed equations inline at
        bench_model.py's point; the model charges stored-raw bytes at full
        size, so the printed form predicts ``gap`` more throughput.
        """
        c, rho, theta, mu = 3e6, 8.0, 34e6, 34e6
        t_prec, t_comp, a1, sigma_ho, delta = 400e6, 60e6, 0.25, 0.1, 4e3
        inp = ModelInputs(
            chunk_bytes=c,
            rho=rho,
            network_bps=theta,
            disk_write_bps=mu,
            preconditioner_bps=t_prec,
            compressor_bps=t_comp,
            alpha1=a1,
            alpha2=alpha2,
            sigma_ho=sigma_ho,
            sigma_lo=sigma_lo,
            metadata_bytes=delta,
        )
        printed_fraction = (
            a1 * sigma_ho
            + alpha2 * (1 - a1) * sigma_lo
            + (1 - alpha2) * (1 - a1) * sigma_lo
            + delta / c
        )
        printed_t_total = (
            c / t_prec  # Eqn 7
            + (1 - a1) * c / t_prec  # Eqn 8
            + a1 * c / t_comp  # Eqn 9
            + alpha2 * (1 - a1) * c / t_comp  # Eqn 10
            + (1 + rho) * c * printed_fraction / theta  # Eqn 11 as printed
            + rho * c * printed_fraction / mu  # Eqn 12 as printed
        )
        printed_tau = rho * c / printed_t_total  # Eqn 3
        model_tau = predict_compressed_write(inp).throughput_bps(inp)
        assert printed_tau / model_tau - 1 == pytest.approx(gap, abs=5e-4)

    def test_metadata_charged(self):
        light = predict_compressed_write(_inputs())
        heavy = predict_compressed_write(_inputs(metadata_bytes=1e5))
        assert heavy.t_transfer > light.t_transfer

    def test_compression_win_when_compute_is_fast(self):
        """Fast compressor + good ratio -> beats the null case (the paper's
        PRIMACY regime)."""
        inp = _inputs(compressor_bps=100e6, preconditioner_bps=1e9)
        assert (
            predict_compressed_write(inp).throughput_bps(inp)
            > predict_base_write(inp).throughput_bps(inp)
        )

    def test_compression_loss_when_compute_is_slow(self):
        """Slow compressor erases the transfer gain (the paper's bzlib2
        regime)."""
        inp = _inputs(compressor_bps=0.5e6, preconditioner_bps=1e9)
        assert (
            predict_compressed_write(inp).throughput_bps(inp)
            < predict_base_write(inp).throughput_bps(inp)
        )


class TestCompressedRead:
    def test_read_uses_read_path_parameters(self):
        inp = _inputs(disk_read_bps=400e6, decompressor_bps=80e6,
                      repreconditioner_bps=500e6)
        out = predict_compressed_read(inp)
        frac = out.out_fraction
        assert out.t_write == pytest.approx(8 * 3e6 * frac / 400e6)
        assert out.t_compress1 == pytest.approx(0.25 * 3e6 / 80e6)

    def test_vanilla_decompression_hurts_reads(self):
        """Sec IV-D: whole-chunk zlib decompression makes reads slower than
        the null case when decompression is not fast enough."""
        inp = _inputs(
            alpha1=1.0,
            alpha2=0.0,
            sigma_ho=0.85,
            network_bps=250e6,
            disk_read_bps=340e6,
            decompressor_bps=80e6,
            preconditioner_bps=1e12,
            repreconditioner_bps=1e12,
        )
        assert (
            predict_compressed_read(inp).throughput_bps(inp)
            < predict_base_read(inp).throughput_bps(inp)
        )
