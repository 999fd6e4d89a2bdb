"""Shared machinery for the Figure 4 end-to-end throughput benches.

Runs the paper's Sec IV-C/IV-D comparison grid once and caches it:
{null, pylzo, pyzlib, primacy} x {num_comet, flash_velx, obs_temp} x
{write, read}, producing both the *simulated empirical* throughput
(real codec executions inside the staging simulator) and the
*theoretical* prediction from the Sec-III model calibrated on the same
run -- the PE/PT, ZE/ZT, LE/LT bars of Fig 4.

The machine is the Jaguar-like environment scaled by (our pyzlib CTP /
paper zlib CTP), both averaged over the 20 Table III datasets, so the
compute/communication balance matches the paper's testbed; see
repro.iosim.environment.

The read side compares codec decode times with the read calibration (the
null bars are nothing but that calibration), so the two are measured in
alternation, ``READ_ROUNDS`` times, and each keeps its best: a slow phase
of a shared host then hits both.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from functools import lru_cache

from _common import dataset_bytes

# Fig 4 runs at 1 MB per dataset so each of the 8 compute nodes handles a
# 128 KiB chunk -- the regime where per-chunk costs are representative of
# the paper's 3 MB chunks.  Reducible for smoke runs via the env var.
FIG4_VALUES = int(os.environ.get("REPRO_FIG4_VALUES", 131072))
#: Alternating rounds of the read calibration and the read cells.
READ_ROUNDS = 3

from repro.compressors import get_codec
from repro.compressors.base import CodecMetrics
from repro.core import PrimacyConfig
from repro.datasets import FIGURE4_DATASETS, dataset_names
from repro.iosim import (
    CodecStrategy,
    CompressionStrategy,
    NullStrategy,
    PrimacyStrategy,
    StagingSimulator,
    jaguar_like_environment,
    measure_reference_decompression,
    measure_reference_throughput,
)
from repro.iosim.environment import PAPER_ZLIB_CTP_MBPS, PAPER_ZLIB_DTP_MBPS
from repro.iosim.strategy import ChunkWork
from repro.model import (
    calibrate_from_metrics,
    calibrate_from_stats,
    predict_base_read,
    predict_base_write,
    predict_compressed_read,
    predict_compressed_write,
)

STRATEGIES = ("null", "pyzlib", "pylzo", "primacy")


@dataclass(frozen=True)
class Fig4Cell:
    """One (dataset, strategy, direction) grid cell."""

    dataset: str
    strategy: str
    direction: str
    empirical_mbps: float  # simulated with measured codec times
    theoretical_mbps: float  # Sec-III model prediction
    compressed_fraction: float


def _make_strategy(name: str, per_node_bytes: int):
    if name == "null":
        return NullStrategy()
    if name == "primacy":
        return PrimacyStrategy(
            PrimacyConfig(chunk_bytes=max(per_node_bytes, 8 * 1024))
        )
    return CodecStrategy(get_codec(name))


class _Replay(CompressionStrategy):
    """Hands the simulator node works measured earlier, in node order."""

    def __init__(self, name: str, works: tuple[ChunkWork, ...]) -> None:
        self.name = name
        self._works = iter(works)

    def process_chunk(self, chunk: bytes) -> ChunkWork:
        """The next recorded node work (the chunk was measured already)."""
        return next(self._works)


def _effective_rates(works) -> tuple[float, float]:
    """(compress_bps, decompress_bps) aggregated over the node works."""
    total = sum(w.original_bytes for w in works)
    tc = sum(w.compress_seconds for w in works)
    td = sum(w.decompress_seconds for w in works)
    comp = total / tc if tc > 0 else float("inf")
    dec = total / td if td > 0 else float("inf")
    return comp, dec


def _theory(env, result, primacy_stats) -> float:
    """Model prediction calibrated from this very run's measurements."""
    write = result.direction == "write"
    machine = dict(
        chunk_bytes=result.original_bytes / env.rho,
        rho=env.rho,
        network_bps=env.network_write_bps if write else env.network_read_bps,
        disk_write_bps=env.disk_write_bps,
        disk_read_bps=env.disk_read_bps,
    )
    comp_bps, dec_bps = _effective_rates(result.node_works)
    if result.strategy == "primacy":
        # alpha/sigma structure from the PRIMACY stats of this run; the
        # compute rates from the measured wall times (the paper likewise
        # measures T_prec / T_comp on the target machine).
        inputs = calibrate_from_stats(primacy_stats, **machine)
        if not write:
            # Effective inverse-pipeline rate measured on this run: charge
            # it across the model's decompression + re-preconditioning
            # stages proportionally.
            a1, a2 = inputs.alpha1, inputs.alpha2
            rate = dec_bps * ((a1 + a2 * (1 - a1)) + (2 - a1))
            inputs = replace(
                inputs, decompressor_bps=rate, repreconditioner_bps=rate
            )
    else:
        # Null and vanilla whole-chunk codecs (the zlib / lzo bars).
        metrics = CodecMetrics(
            codec=result.strategy,
            original_bytes=result.original_bytes,
            compressed_bytes=result.payload_bytes,
            compression_ratio=1.0 / result.compressed_fraction,
            compression_mbps=comp_bps / 1e6,
            decompression_mbps=dec_bps / 1e6,
        )
        inputs = calibrate_from_metrics(metrics, **machine)
    if result.strategy == "null":
        predict = predict_base_write if write else predict_base_read
    else:
        predict = predict_compressed_write if write else predict_compressed_read
    return predict(inputs).throughput_mbps(inputs)


def _pyzlib_reference_bps(measure, samples: list[bytes]) -> float:
    """``pyzlib`` total bytes over total time across ``samples``."""
    codec = get_codec("pyzlib")
    seconds = sum(len(s) / measure(codec, s, repeats=2) for s in samples)
    return sum(len(s) for s in samples) / seconds


@lru_cache(maxsize=1)
def fig4_grid() -> tuple[float, dict[tuple[str, str, str], Fig4Cell]]:
    """Compute the whole Fig-4 grid once; returns (scale, cells)."""
    # Calibrate the machine against pyzlib measured at the *per-node*
    # chunk size, since that is the granularity compute nodes work at,
    # and over every dataset, as the paper's zlib CTP/DTP average over
    # Table III.
    per_node_bytes = len(dataset_bytes("obs_temp", FIG4_VALUES)) // 8
    references = [
        dataset_bytes(name, FIG4_VALUES)[:per_node_bytes]
        for name in dataset_names()
    ]
    scale = _pyzlib_reference_bps(measure_reference_throughput, references) / (
        PAPER_ZLIB_CTP_MBPS * 1e6
    )
    sim = StagingSimulator(jaguar_like_environment(scale))

    cells: dict[tuple[str, str, str], Fig4Cell] = {}

    def add(direction, dataset, strat_name, env, result, stats) -> None:
        cells[(dataset, strat_name, direction)] = Fig4Cell(
            dataset=dataset,
            strategy=strat_name,
            direction=direction,
            empirical_mbps=result.throughput_mbps,
            theoretical_mbps=_theory(env, result, stats),
            compressed_fraction=result.compressed_fraction,
        )

    for dataset in FIGURE4_DATASETS:
        data = dataset_bytes(dataset, FIG4_VALUES)
        for strat_name in STRATEGIES:
            strategy = _make_strategy(strat_name, per_node_bytes)
            result = sim.simulate_write(data, strategy)
            stats = getattr(strategy, "last_stats", None)
            add("write", dataset, strat_name, sim.env, result, stats)

    # Reads: the calibration pass and every cell's node decode times, in
    # alternation; the fastest calibration and each cell's fastest round
    # count, composed on the machine of that calibration.
    read_bps = 0.0
    fastest: dict[tuple[str, str], tuple[float, tuple, object]] = {}
    for _ in range(READ_ROUNDS):
        read_bps = max(
            read_bps,
            _pyzlib_reference_bps(measure_reference_decompression, references),
        )
        for dataset in FIGURE4_DATASETS:
            data = dataset_bytes(dataset, FIG4_VALUES)
            for strat_name in STRATEGIES:
                strategy = _make_strategy(strat_name, per_node_bytes)
                result = sim.simulate_read(data, strategy)
                key = (dataset, strat_name)
                if key not in fastest or result.t_compute < fastest[key][0]:
                    fastest[key] = (
                        result.t_compute,
                        result.node_works,
                        getattr(strategy, "last_stats", None),
                    )
    env = jaguar_like_environment(
        scale, read_scale=read_bps / (PAPER_ZLIB_DTP_MBPS * 1e6)
    )
    read_sim = StagingSimulator(env)
    for (dataset, strat_name), (_, works, stats) in fastest.items():
        data = dataset_bytes(dataset, FIG4_VALUES)
        result = read_sim.simulate_read(data, _Replay(strat_name, works))
        add("read", dataset, strat_name, env, result, stats)
    return scale, cells
