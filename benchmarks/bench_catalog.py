"""Sharded-archive benchmark: parallel pack throughput and O(1) reads.

Packs the same payload as one monolithic PRIF file and as sharded
archives at 1/2/4/8 parallel shard writers, then measures point reads:
a fresh-handle single-chunk read against the sharded catalog versus
decoding through a monolithic reader, plus the obs-counter-measured
fraction of the archive a single-chunk read leaves cold.

Usage (CI runs the gate form)::

    python benchmarks/bench_catalog.py
    python benchmarks/bench_catalog.py \
        --output results/BENCH_catalog.json \
        --baseline benchmarks/baselines/BENCH_catalog_baseline.json --check

Gated metrics:

* ``pack_scaleup_4_over_1`` -- sharded pack throughput at 4 writers
  over 1 writer.  Machine-relative: on a many-core box this shows the
  parallel win; the committed floor only demands fan-out never
  *collapses* throughput on whatever machine CI lands on.
* ``range_read_locality`` -- 1 - (bytes touched by a single-chunk
  read / archive bytes).  Machine-independent: the catalog must route
  a point read to one record in one shard, not a scan.
* ``roundtrip_identical`` -- 1.0 iff the sharded archive reads back
  byte-identical to the monolithic container's payload.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path

from _common import BENCH_SEED, Table, fan_out_label, machine_info, mbps
from repro.benchmark import DEFAULT_THRESHOLD, check_baseline
from repro.core.primacy import PrimacyConfig
from repro.datasets import generate_bytes

DEFAULT_N_VALUES = 131072  # 1 MiB of float64 -> 64 chunks of 16 KiB
DEFAULT_CHUNK_BYTES = 16 * 1024
DEFAULT_SHARD_LEVELS = (1, 2, 4, 8)
DEFAULT_POINT_READS = 16

_GATED_SUMMARY_METRICS = (
    "pack_scaleup_4_over_1",
    "range_read_locality",
    "roundtrip_identical",
)


def _payload(n_values: int, seed: int) -> bytes:
    half = n_values // 2
    return generate_bytes("obs_temp", half, seed=seed) + generate_bytes(
        "num_plasma", n_values - half, seed=seed
    )


def _pack_monolithic(path: Path, payload: bytes, config: PrimacyConfig) -> float:
    from repro.storage import PrimacyFileWriter

    start = time.perf_counter()
    with PrimacyFileWriter(path, config) as writer:
        writer.write(payload)
    return time.perf_counter() - start


def _pack_sharded(
    directory: Path, payload: bytes, config: PrimacyConfig, shards: int
) -> float:
    from repro.storage import ShardedArchiveWriter

    start = time.perf_counter()
    with ShardedArchiveWriter(directory, config, shards=shards) as writer:
        writer.write(payload)
    return time.perf_counter() - start


def _point_read_sharded(directory: Path, chunk_id: int) -> tuple[bytes, float]:
    """Cold single-chunk read: fresh reader, one catalog-routed seek."""
    from repro.storage import ShardedArchiveReader

    start = time.perf_counter()
    with ShardedArchiveReader(directory) as reader:
        data = reader.read_chunk(chunk_id)
    return data, time.perf_counter() - start


def _point_read_monolithic(path: Path, chunk_id: int) -> tuple[bytes, float]:
    from repro.storage import PrimacyFileReader

    start = time.perf_counter()
    with PrimacyFileReader(path, cache_metadata=False) as reader:
        data = reader.read_chunk(chunk_id)
    return data, time.perf_counter() - start


def _measure_locality(directory: Path, chunk_id: int) -> dict:
    """Bytes a cold single-chunk read touches, straight from obs."""
    from repro import obs
    from repro.storage import ShardedArchiveReader

    archive_bytes = sum(p.stat().st_size for p in directory.iterdir())
    obs.disable()
    obs.reset()
    obs.enable()
    try:
        with ShardedArchiveReader(directory) as reader:
            reader.read_chunk(chunk_id)
        counters = {
            name: value
            for name, _labels, value in (
                obs.metrics.registry().snapshot()["counters"]
            )
        }
    finally:
        obs.disable()
        obs.reset()
    touched = int(
        counters.get("catalog.read.manifest_bytes", 0)
        + counters.get("catalog.read.bytes_touched", 0)
    )
    return {
        "archive_bytes": archive_bytes,
        "bytes_touched": touched,
        "shards_opened": int(counters.get("catalog.shards.opened", 0)),
        "locality": round(1.0 - touched / archive_bytes, 4),
    }


def run_bench(
    n_values: int,
    chunk_bytes: int,
    shard_levels: list[int],
    point_reads: int,
    seed: int,
    scratch: Path,
) -> dict:
    config = PrimacyConfig(chunk_bytes=chunk_bytes)
    payload = _payload(n_values, seed)
    payload_bytes = len(payload)
    n_chunks = payload_bytes // chunk_bytes

    mono_path = scratch / "mono.prif"
    mono_seconds = _pack_monolithic(mono_path, payload, config)

    pack: dict[str, dict] = {
        "monolithic": {
            "writers": 1,
            "seconds": round(mono_seconds, 6),
            "mbps": round(mbps(payload_bytes, mono_seconds), 3),
        }
    }
    for shards in shard_levels:
        directory = scratch / f"arc_{shards}"
        seconds = _pack_sharded(directory, payload, config, shards)
        pack[f"shards_{shards}"] = {
            "writers": shards,
            "seconds": round(seconds, 6),
            "mbps": round(mbps(payload_bytes, seconds), 3),
        }

    # Point reads: cold reader each time, chunks spread over the file.
    read_dir = scratch / "arc_4" if 4 in shard_levels else (
        scratch / f"arc_{shard_levels[-1]}"
    )
    chunk_ids = [
        (i * max(1, n_chunks // point_reads)) % n_chunks
        for i in range(point_reads)
    ]
    sharded_seconds = 0.0
    mono_read_seconds = 0.0
    identical = True
    for chunk_id in chunk_ids:
        data_s, dt = _point_read_sharded(read_dir, chunk_id)
        sharded_seconds += dt
        data_m, dt = _point_read_monolithic(mono_path, chunk_id)
        mono_read_seconds += dt
        identical = identical and data_s == data_m

    from repro.storage import ShardedArchiveReader

    with ShardedArchiveReader(read_dir) as reader:
        identical = identical and reader.read_all() == payload

    locality = _measure_locality(read_dir, chunk_ids[0])

    first = pack[f"shards_{shard_levels[0]}"]
    four = pack.get("shards_4", pack[f"shards_{shard_levels[-1]}"])
    return {
        "schema": 1,
        "machine": machine_info(),
        "params": {
            "n_values": n_values,
            "chunk_bytes": chunk_bytes,
            "payload_bytes": payload_bytes,
            "n_chunks": n_chunks,
            "shard_levels": shard_levels,
            "point_reads": point_reads,
            "seed": seed,
        },
        "pack": pack,
        "point_read": {
            "n_reads": point_reads,
            "sharded_ms_per_read": round(
                1000 * sharded_seconds / point_reads, 4
            ),
            "monolithic_ms_per_read": round(
                1000 * mono_read_seconds / point_reads, 4
            ),
        },
        "locality": locality,
        "summary": {
            "pack_mbps_1_writer": first["mbps"],
            "pack_mbps_4_writers": four["mbps"],
            "pack_scaleup_4_over_1": round(four["mbps"] / first["mbps"], 4),
            "sharded_over_monolithic_read": round(
                mono_read_seconds / sharded_seconds, 4
            )
            if sharded_seconds
            else 0.0,
            "range_read_locality": locality["locality"],
            "roundtrip_identical": 1.0 if identical else 0.0,
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-values", type=int, default=DEFAULT_N_VALUES)
    parser.add_argument(
        "--chunk-bytes", type=int, default=DEFAULT_CHUNK_BYTES
    )
    parser.add_argument(
        "--shards",
        default=",".join(str(s) for s in DEFAULT_SHARD_LEVELS),
        help="comma-separated shard-writer counts (default: 1,2,4,8)",
    )
    parser.add_argument(
        "--point-reads", type=int, default=DEFAULT_POINT_READS
    )
    parser.add_argument("--seed", type=int, default=BENCH_SEED)
    parser.add_argument("--scratch", type=Path, default=None)
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

    shard_levels = [
        int(s.strip()) for s in args.shards.split(",") if s.strip()
    ]
    scratch = args.scratch or Path("benchmarks/results/_catalog_scratch")
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        document = run_bench(
            n_values=args.n_values,
            chunk_bytes=args.chunk_bytes,
            shard_levels=shard_levels,
            point_reads=args.point_reads,
            seed=args.seed,
            scratch=scratch,
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    table = Table(
        f"sharded archive pack, {document['params']['payload_bytes']} B "
        f"across {document['params']['n_chunks']} chunks",
        ["layout", "writers", "seconds", "MB/s"],
    )
    for name, row in document["pack"].items():
        table.add(name, row["writers"], row["seconds"], row["mbps"])
    summary = document["summary"]
    point = document["point_read"]
    table.note(
        f"4w/1w pack {fan_out_label(4, 'writers')} "
        f"{summary['pack_scaleup_4_over_1']:.3f}; "
        f"cold point read {point['sharded_ms_per_read']:.2f} ms sharded "
        f"vs {point['monolithic_ms_per_read']:.2f} ms monolithic"
    )
    table.note(
        f"single-chunk read touched {document['locality']['bytes_touched']} "
        f"of {document['locality']['archive_bytes']} archive bytes "
        f"(locality {summary['range_read_locality']:.4f}); "
        f"round-trip identical: {summary['roundtrip_identical']:.0f}"
    )
    table.emit("BENCH_catalog.txt")

    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(json.dumps(document, indent=2, sort_keys=True))
        print(f"wrote {args.output}")
    if args.baseline is not None:
        regressed = check_baseline(
            document, args.baseline, args.threshold,
            metrics=_GATED_SUMMARY_METRICS, section="summary",
        )
        if regressed and args.check:
            return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
