#!/usr/bin/env python
"""Multi-core in-situ compression with the process-pool pipeline.

On a real machine the paper's parallelism comes from compute nodes; on
one host the same structure maps onto cores.  This example compresses a
large buffer serially and with a worker pool, verifies the outputs are
byte-identical (chunks are independent under the per-chunk index policy)
and that the pool decompresses them back, and reports the speedup.

Run:  python examples/parallel_insitu.py
"""

from __future__ import annotations

import os
import time

from repro.core import PrimacyCompressor, PrimacyConfig
from repro.datasets import generate_bytes
from repro.parallel import ParallelCompressor

N_VALUES = 262144  # 2 MB
CHUNK = 128 * 1024


def main() -> None:
    data = generate_bytes("flash_gamc", N_VALUES, seed=99)
    cfg = PrimacyConfig(chunk_bytes=CHUNK)
    print(f"dataset: flash_gamc, {len(data) / 1e6:.1f} MB, "
          f"{len(data) // CHUNK} chunks of {CHUNK // 1024} KiB")

    t0 = time.perf_counter()
    serial_out, serial_stats = PrimacyCompressor(cfg).compress(data)
    t_serial = time.perf_counter() - t0
    print(f"serial:   {t_serial:.2f}s  "
          f"({len(data) / 1e6 / t_serial:.2f} MB/s)  "
          f"CR={serial_stats.compression_ratio:.3f}")

    workers = min(os.cpu_count() or 1, 8)
    # The context manager shuts the worker pool and its shared-memory
    # segments down on exit.
    with ParallelCompressor(cfg, workers=workers) as pool:
        t0 = time.perf_counter()
        parallel_out, _ = pool.compress(data)
        t_parallel = time.perf_counter() - t0
        print(f"parallel: {t_parallel:.2f}s  "
              f"({len(data) / 1e6 / t_parallel:.2f} MB/s)  "
              f"with {workers} workers")
        assert pool.decompress(parallel_out) == data, "round trip failed"

    assert parallel_out == serial_out, "outputs must be byte-identical"
    print(f"outputs byte-identical; speedup {t_serial / t_parallel:.2f}x")
    print("(pool startup costs amortize with larger buffers)")


if __name__ == "__main__":
    main()
