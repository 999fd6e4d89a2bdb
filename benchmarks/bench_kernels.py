"""Fused-kernel benchmark: the chunk hot path, before vs after.

Times the PRIMACY precondition + ID-map stage (byte split, sequence
packing, frequency index build, ID mapping, linearization) two ways:

* ``reference`` -- the original naive pipeline, kept as the
  ``reference_id_stream`` oracle in ``tests/oracles.py``: materialize the
  big-endian byte matrix, slice high/low copies, rebuild a dense lookup
  table per chunk, serialize IDs column by column;
* ``fused`` -- :mod:`repro.core.kernels`: sequences packed straight off
  the raw little-endian chunk view, a persistent lookup table, and
  arena-owned output buffers (steady state, after a warm-up chunk).

End-to-end compress/decompress throughput of the pipeline (fused) is
reported as well, so the stage win is visible in context of codec time.

Usage (CI runs the gate form)::

    python benchmarks/bench_kernels.py
    python benchmarks/bench_kernels.py \
        --output results/BENCH_kernels.json \
        --baseline benchmarks/baselines/BENCH_kernels_baseline.json --check

The baseline gate mirrors ``primacy bench --check``: any gated metric
more than ``--threshold`` below its committed floor fails with exit
status 3.  Floors are conservative (CI machines are noisy); the fused /
reference *speedup* is machine-relative and therefore the most stable
gated metric.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from _common import BENCH_SEED, BENCH_VALUES, Table, geometric_mean, mbps
from repro.benchmark import DEFAULT_THRESHOLD, check_baseline
from repro.core.idmap import IdMapper
from repro.core.kernels import (
    ScratchArena,
    linearize_ids,
    low_matrix_view,
    pack_sequences,
    raw_matrix,
)
from repro.core.primacy import PrimacyCompressor, PrimacyConfig
from repro.datasets import generate_bytes

from tests.oracles import reference_id_stream

SCHEMA_VERSION = 1
DEFAULT_DATASETS = ("obs_temp", "msg_bt", "num_plasma")

#: Per-dataset metrics gated against the baseline; all bigger-is-better.
_GATED_METRICS = (
    "precondition_idmap_speedup",
    "fused_precondition_idmap_mbps",
    "fused_compress_mbps",
    "fused_decompress_mbps",
)


def _fused_stage(
    chunk: bytes,
    config: PrimacyConfig,
    mapper: IdMapper,
    arena: ScratchArena,
):
    """The same stage through the fused kernels and a warm arena."""
    raw = raw_matrix(chunk, config.word_bytes)
    seqs = pack_sequences(raw, config.high_bytes, arena)
    index = mapper.index_from_frequencies(mapper.frequencies(seqs))
    ids, _ = mapper.apply_ids(seqs, index)
    low_matrix_view(raw, config.high_bytes)
    return linearize_ids(ids, config.high_bytes, config.linearization, arena)


def _best_seconds(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def measure_dataset(
    name: str, n_values: int, *, repeats: int, seed: int
) -> dict:
    """Stage throughput (reference and fused) and end-to-end throughput."""
    data = generate_bytes(name, n_values, seed)
    n = len(data)
    cfg = PrimacyConfig(chunk_bytes=max(n, 1 << 16))

    # --- isolated precondition + ID-map stage -------------------------
    mapper = IdMapper(seq_bytes=cfg.high_bytes)
    arena = ScratchArena()
    # Equivalence sanity check doubles as the arena/table warm-up, so the
    # fused timing below measures steady state (buffers reused, not grown).
    ref_stream = reference_id_stream(data, cfg)[0]
    fused_stream = _fused_stage(data, cfg, mapper, arena)
    if ref_stream != fused_stream:
        raise RuntimeError(f"kernel equivalence failed for dataset {name!r}")

    t_ref = _best_seconds(lambda: reference_id_stream(data, cfg), repeats)
    t_fused = _best_seconds(
        lambda: _fused_stage(data, cfg, mapper, arena), repeats
    )

    # --- end to end ---------------------------------------------------
    row: dict[str, float | int] = {
        "original_bytes": n,
        "reference_precondition_idmap_mbps": mbps(n, t_ref),
        "fused_precondition_idmap_mbps": mbps(n, t_fused),
        "precondition_idmap_speedup": t_ref / t_fused if t_fused > 0 else 1.0,
    }
    comp = PrimacyCompressor(cfg)
    blob = b""

    def _compress():
        nonlocal blob
        blob, _ = comp.compress(data)

    _compress()  # warm-up (arena growth + codec init)
    t_c = _best_seconds(_compress, repeats)
    t_d = _best_seconds(lambda: comp.decompress(blob), repeats)
    if comp.decompress(blob) != data:
        raise RuntimeError(f"round trip failed for dataset {name!r}")
    row["fused_compress_mbps"] = mbps(n, t_c)
    row["fused_decompress_mbps"] = mbps(n, t_d)
    return row


def run_bench(
    datasets: list[str],
    *,
    n_values: int,
    repeats: int,
    seed: int,
) -> dict:
    """Benchmark every dataset; returns the JSON result document."""
    results = {
        name: measure_dataset(name, n_values, repeats=repeats, seed=seed)
        for name in datasets
    }
    speedups = [r["precondition_idmap_speedup"] for r in results.values()]
    return {
        "schema": SCHEMA_VERSION,
        "config": {
            "n_values": n_values,
            "seed": seed,
            "repeats": repeats,
        },
        "results": results,
        "summary": {
            "precondition_idmap_speedup_geomean": geometric_mean(speedups),
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--datasets", default=",".join(DEFAULT_DATASETS),
        help="comma-separated dataset names",
    )
    parser.add_argument("--n-values", type=int, default=BENCH_VALUES)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=BENCH_SEED)
    parser.add_argument("--output", type=Path, default=None)
    parser.add_argument("--baseline", type=Path, default=None)
    parser.add_argument(
        "--threshold", type=float, default=DEFAULT_THRESHOLD
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit 3 if any gated metric fell past --threshold",
    )
    args = parser.parse_args(argv)
    if args.check and args.baseline is None:
        print("error: --check requires --baseline", file=sys.stderr)
        return 2

    datasets = [d.strip() for d in args.datasets.split(",") if d.strip()]
    document = run_bench(
        datasets,
        n_values=args.n_values,
        repeats=args.repeats,
        seed=args.seed,
    )

    table = Table(
        "Fused chunk kernels vs reference (precondition + ID-map stage)",
        ["dataset", "ref MB/s", "fused MB/s", "speedup",
         "fused CTP", "fused DTP"],
    )
    for name, row in document["results"].items():
        table.add(
            name,
            row["reference_precondition_idmap_mbps"],
            row["fused_precondition_idmap_mbps"],
            row["precondition_idmap_speedup"],
            row["fused_compress_mbps"],
            row["fused_decompress_mbps"],
        )
    table.note(
        "speedup geomean "
        f"{document['summary']['precondition_idmap_speedup_geomean']:.2f}x; "
        f"n_values={args.n_values}, best of {args.repeats}"
    )
    table.emit("BENCH_kernels.txt")

    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(json.dumps(document, indent=2, sort_keys=True))
        print(f"wrote {args.output}")
    if args.baseline is not None:
        regressed = check_baseline(
            document, args.baseline, args.threshold,
            metrics=_GATED_METRICS,
        )
        if regressed and args.check:
            return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
