"""Pipelined (double-buffered) staging writes: the step record's pipelined form.

Each simulated step is a :class:`repro.model.StepTimes`; its
``makespan(n)`` overlaps step k+1's compute with step k's transfer and
disk stages.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compressors import get_codec
from repro.iosim import (
    CodecStrategy,
    NullStrategy,
    StagingEnvironment,
    StagingSimulator,
)

_ENV = StagingEnvironment(
    rho=4,
    network_write_bps=5e6,
    network_read_bps=20e6,
    disk_write_bps=5e6,
    disk_read_bps=40e6,
)


@pytest.fixture(scope="module")
def dataset():
    rng = np.random.default_rng(6)
    vals = np.cumsum(rng.normal(0, 0.01, 32768)) + 3
    m, e = np.frexp(vals)
    return np.ldexp(np.round(m * 2**18) / 2**18, e).astype("<f8").tobytes()


class TestPipelinedWrite:
    def test_null_strategy_is_pure_io(self, dataset):
        step = StagingSimulator(_ENV).simulate_write(dataset, NullStrategy())
        assert step.bottleneck == "io"
        assert step.t_steady == step.t_transfer + step.t_disk

    def test_makespan_formula(self, dataset):
        step = StagingSimulator(_ENV).simulate_write(
            dataset, CodecStrategy(get_codec("pylzo"))
        )
        steady = max(step.t_compute, step.t_transfer + step.t_disk)
        expected = step.t_compute + 2 * steady + (step.t_transfer + step.t_disk)
        assert step.makespan(3) == pytest.approx(expected)

    def test_pipelining_never_slower_than_bsp(self, dataset):
        sim = StagingSimulator(_ENV)
        strat = CodecStrategy(get_codec("pylzo"))
        n = 5
        bsp_makespan = n * sim.simulate_write(dataset, strat).t_total
        piped = sim.simulate_write(dataset, strat)
        assert piped.makespan(n) <= bsp_makespan * 1.05
        assert piped.makespan(n) <= n * piped.t_total

    def test_compression_gain_amplified_by_overlap(self, dataset):
        """With compute hidden, the payload reduction is pure profit."""
        sim = StagingSimulator(_ENV)
        n = 8
        null_step = sim.simulate_write(dataset, NullStrategy())
        lzo_step = sim.simulate_write(dataset, CodecStrategy(get_codec("pylzo")))
        if lzo_step.bottleneck == "io":
            # Speedup approaches 1/compressed_fraction at steady state.
            lzo_tau = lzo_step.pipelined_throughput_bps(n)
            speedup = lzo_tau / null_step.pipelined_throughput_bps(n)
            inv_fraction = 1.0 / lzo_step.compressed_fraction
            assert speedup == pytest.approx(inv_fraction, rel=0.2)

    def test_single_step_equals_bsp(self, dataset):
        step = StagingSimulator(_ENV).simulate_write(
            dataset, CodecStrategy(get_codec("pylzo"))
        )
        assert step.makespan(1) == pytest.approx(step.t_total)
        assert step.pipelined_throughput_bps(1) == pytest.approx(
            step.throughput_bps
        )

    def test_step_count_validation(self, dataset):
        step = StagingSimulator(_ENV).simulate_write(dataset, NullStrategy())
        with pytest.raises(ValueError):
            step.makespan(0)
