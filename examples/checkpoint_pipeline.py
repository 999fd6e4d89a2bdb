#!/usr/bin/env python
"""Checkpoint/restart through a staging I/O hierarchy (the paper's Fig 4).

Simulates the paper's motivating scenario: a simulation on 8 compute
nodes periodically checkpoints through one I/O node to disk, then
restarts (reads everything back).  Four compute-node strategies are
compared on end-to-end throughput: no compression, vanilla zlib, vanilla
lzo, and PRIMACY.

The machine is a Jaguar-XK6-like environment scaled to this host's codec
speeds, so the compute/communication balance -- which decides who wins --
matches the paper's testbed.

Run:  python examples/checkpoint_pipeline.py
"""

from __future__ import annotations

from repro.compressors import get_codec
from repro.core import PrimacyConfig
from repro.datasets import generate_bytes
from repro.iosim import (
    CodecStrategy,
    NullStrategy,
    PrimacyStrategy,
    StagingSimulator,
    jaguar_like_environment,
    measure_reference_decompression,
    measure_reference_throughput,
)
from repro.iosim.environment import PAPER_ZLIB_CTP_MBPS, PAPER_ZLIB_DTP_MBPS
from repro.model import tau

N_VALUES = 65536  # 512 KiB checkpoint per step
N_STEPS = 3


def main() -> None:
    checkpoint = generate_bytes("flash_velx", N_VALUES, seed=11)
    per_node = checkpoint[: len(checkpoint) // 8]

    # Scale the machine so it relates to our codecs the way Jaguar
    # related to C zlib (separately per direction; see DESIGN.md).
    scale = measure_reference_throughput(
        get_codec("pyzlib"), per_node
    ) / (PAPER_ZLIB_CTP_MBPS * 1e6)
    read_scale = measure_reference_decompression(
        get_codec("pyzlib"), per_node
    ) / (PAPER_ZLIB_DTP_MBPS * 1e6)
    env = jaguar_like_environment(scale, read_scale=read_scale)
    sim = StagingSimulator(env)
    print(f"machine: rho={env.rho}, theta_w={env.network_write_bps / 1e6:.2f} "
          f"scaled MB/s, mu_w={env.disk_write_bps / 1e6:.2f} scaled MB/s")
    print(f"checkpoint: flash_velx, {len(checkpoint):,} bytes x {N_STEPS} steps")
    print()

    strategies = {
        "no compression": NullStrategy(),
        "vanilla zlib": CodecStrategy(get_codec("pyzlib")),
        "vanilla lzo": CodecStrategy(get_codec("pylzo")),
        "PRIMACY": PrimacyStrategy(
            PrimacyConfig(chunk_bytes=len(checkpoint) // 8)
        ),
    }

    print(f"{'strategy':16s} {'write MB/s':>11s} {'read MB/s':>10s} "
          f"{'bytes moved':>12s} {'ckpt time':>10s}")
    for name, strategy in strategies.items():
        write_t = read_t = moved = stored = 0.0
        for _ in range(N_STEPS):
            w = sim.simulate_write(checkpoint, strategy)
            r = sim.simulate_read(checkpoint, strategy)
            write_t += w.t_total
            read_t += r.t_total
            moved += w.payload_bytes
            stored += w.original_bytes
        print(f"{name:16s} {tau(stored, write_t) / 1e6:11.2f} "
              f"{tau(stored, read_t) / 1e6:10.2f} "
              f"{moved / 1e6:10.1f}MB {write_t:9.2f}s")

    print()
    print("PRIMACY hides its compression cost inside the I/O pipeline and")
    print("still shrinks the checkpoints -- vanilla compression cannot do both.")

    # --- visualize one PRIMACY write step ---------------------------------
    from repro.iosim import timeline_from_result

    result = sim.simulate_write(checkpoint, strategies["PRIMACY"])
    print()
    print("one PRIMACY write step (parallel compute, then network, then disk):")
    print(timeline_from_result(result).render(width=60))


if __name__ == "__main__":
    main()
