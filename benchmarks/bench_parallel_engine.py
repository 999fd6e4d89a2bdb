"""Extension: persistent shared-memory parallel engine scaling.

Quantifies what the engine removes from the critical path relative to
the naive pool: process start-up (persistent vs fresh pool per call)
and payload pickling (shared-memory vs pickle transport, accounted per
byte by :class:`repro.parallel.PoolStats`).

Two artifacts per run:

* ``results/parallel_engine.txt`` -- the human-readable table;
* ``results/BENCH_parallel.json`` -- machine-readable numbers for
  trend tracking (every :meth:`PoolStats.summary` field per worker
  count).

Shapes over absolutes: single-core CI hosts cannot show wall-clock
speedups, so the assertions check byte-identity with the serial
pipeline and stats consistency, never timing ratios.
"""

from __future__ import annotations

import json
import os
import time

from _common import RESULTS_DIR, Table, dataset_bytes, mbps, time_call

from repro import obs
from repro.core import PrimacyCompressor, PrimacyConfig
from repro.parallel import ParallelCompressor

_CHUNK_BYTES = 16 * 1024


def test_parallel_engine_scaling(once):
    def run():
        data = dataset_bytes("obs_temp")
        cfg = PrimacyConfig(chunk_bytes=_CHUNK_BYTES)
        serial = PrimacyCompressor(cfg)
        (serial_out, _), t_serial = time_call(serial.compress, data)

        worker_counts = sorted({1, 2, 4, os.cpu_count() or 1})
        per_workers = []
        for workers in worker_counts:
            # Fresh pool per call: the old ProcessPoolExecutor pattern.
            with ParallelCompressor(cfg, workers=workers) as comp:
                (fresh_out, _), t_fresh = time_call(comp.compress, data)
            # Persistent pool: first call pays start-up, second is warm.
            with ParallelCompressor(cfg, workers=workers) as comp:
                comp.compress(data)
                (warm_out, _), t_warm = time_call(comp.compress, data)
                engine_summary = comp.engine.stats.summary()
            with ParallelCompressor(cfg, workers=workers) as dec:
                restored, t_dec = time_call(dec.decompress, serial_out)
            per_workers.append(
                {
                    "workers": workers,
                    "fresh_seconds": t_fresh,
                    "warm_seconds": t_warm,
                    "decompress_seconds": t_dec,
                    "identical": fresh_out == serial_out
                    and warm_out == serial_out,
                    "roundtrip": restored == data,
                    "engine": engine_summary,
                }
            )
        return {
            "dataset": "obs_temp",
            "n_bytes": len(data),
            "chunk_bytes": _CHUNK_BYTES,
            "cpu_count": os.cpu_count(),
            "serial_seconds": t_serial,
            "per_workers": per_workers,
        }

    result = once(run)
    n = result["n_bytes"]
    table = Table(
        f"Extension -- parallel engine scaling (obs_temp, {n} bytes, "
        f"{_CHUNK_BYTES // 1024} KiB chunks, {result['cpu_count']} CPU(s))",
        [
            "workers",
            "fresh MB/s",
            "warm MB/s",
            "decomp MB/s",
            "shm KiB",
            "pickled KiB",
            "busy",
        ],
    )
    table.add("serial", mbps(n, result["serial_seconds"]), "-", "-", "-", "-", "-")
    for row in result["per_workers"]:
        eng = row["engine"]
        table.add(
            row["workers"],
            mbps(n, row["fresh_seconds"]),
            mbps(n, row["warm_seconds"]),
            mbps(n, row["decompress_seconds"]),
            eng["shm_bytes"] / 1024,
            eng["pickled_bytes"] / 1024,
            f"{eng['busy_fraction']:.2f}",
        )
    table.note(
        "warm = second compress on a persistent pool (start-up amortized); "
        "fresh pays pool start per call"
    )
    table.note(
        "speedup requires real cores; on a single-CPU host the value of "
        "the engine is the overlap (see storage/checkpoint pipelining)"
    )
    table.emit("parallel_engine.txt")

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_parallel.json").write_text(
        json.dumps(result, indent=2, sort_keys=True) + "\n"
    )

    # Shapes, not absolutes: every parallel output byte-identical to
    # serial, every decompression exact, and multi-worker runs moved the
    # bulk of the payload through shared memory rather than pickles.
    for row in result["per_workers"]:
        assert row["identical"]
        assert row["roundtrip"]
        if row["workers"] > 1:
            eng = row["engine"]
            assert eng["shm_bytes"] > eng["pickled_bytes"]
            assert eng["tasks"] > 0


def _best_of(fn, repeats: int = 7) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _best_of_pair(fn_a, fn_b, repeats: int = 9) -> tuple[float, float]:
    """Interleaved best-of timing for an A/B comparison.

    Alternating the two candidates inside one loop cancels the
    slow-drift noise (thermal, host contention) that a measure-all-of-A-
    then-all-of-B loop folds into the difference.
    """
    best_a = best_b = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn_a()
        best_a = min(best_a, time.perf_counter() - t0)
        t0 = time.perf_counter()
        fn_b()
        best_b = min(best_b, time.perf_counter() - t0)
    return best_a, best_b


def test_observability_overhead(once):
    """Cost of the ``repro.obs`` hooks with instrumentation *off*.

    Every hot-path hook is one attribute check when disabled; the
    requirement is <5% compress overhead against the bare pipeline.  The
    bare path is still reachable (``functools.wraps`` keeps the raw
    codec implementation as ``__wrapped__``), so both codec-level and
    pipeline-level costs are measured.  The hard assertions are the
    deterministic ones -- a disabled run must record *nothing* -- plus a
    generous timing tripwire; exact percentages land in the JSON for
    trend tracking.
    """

    def run():
        data = dataset_bytes("obs_temp")
        cfg = PrimacyConfig(chunk_bytes=_CHUNK_BYTES)
        from repro.compressors import get_codec

        obs.disable()
        obs.reset()

        # Codec level: instrumented-but-disabled vs the raw implementation.
        codec = get_codec("pyzlib")
        bare_compress = type(codec).compress.__wrapped__
        t_bare, t_disabled = _best_of_pair(
            lambda: bare_compress(codec, data),
            lambda: codec.compress(data),
        )

        # Pipeline level: full compress with hooks disabled vs enabled.
        comp = PrimacyCompressor(cfg)
        t_pipe_disabled = _best_of(lambda: comp.compress(data), repeats=5)
        recorded_disabled = len(obs.registry()) + len(obs.recorder().spans())
        obs.enable()
        t_pipe_enabled = _best_of(lambda: comp.compress(data), repeats=5)
        recorded_enabled = len(obs.registry())
        obs.disable()
        obs.reset()

        return {
            "dataset": "obs_temp",
            "n_bytes": len(data),
            "codec_bare_seconds": t_bare,
            "codec_disabled_seconds": t_disabled,
            "codec_overhead_fraction": (t_disabled - t_bare) / t_bare,
            "pipeline_disabled_seconds": t_pipe_disabled,
            "pipeline_enabled_seconds": t_pipe_enabled,
            "pipeline_enabled_overhead_fraction": (
                (t_pipe_enabled - t_pipe_disabled) / t_pipe_disabled
            ),
            "recorded_while_disabled": recorded_disabled,
            "recorded_while_enabled": recorded_enabled,
        }

    result = once(run)
    n = result["n_bytes"]
    table = Table(
        f"Extension -- observability overhead (obs_temp, {n} bytes)",
        ["path", "MB/s", "overhead"],
    )
    table.add("codec bare", mbps(n, result["codec_bare_seconds"]), "-")
    table.add(
        "codec hooks off",
        mbps(n, result["codec_disabled_seconds"]),
        f"{result['codec_overhead_fraction']:+.1%}",
    )
    table.add(
        "pipeline hooks off", mbps(n, result["pipeline_disabled_seconds"]), "-"
    )
    table.add(
        "pipeline hooks ON",
        mbps(n, result["pipeline_enabled_seconds"]),
        f"{result['pipeline_enabled_overhead_fraction']:+.1%}",
    )
    table.note(
        "hooks off = instrumented entry points with obs disabled "
        "(one flag check per call); requirement is <5% vs bare"
    )
    table.emit("obs_overhead.txt")

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_obs_overhead.json").write_text(
        json.dumps(result, indent=2, sort_keys=True) + "\n"
    )

    # Deterministic: disabled instrumentation writes nothing, enabled
    # instrumentation writes something.
    assert result["recorded_while_disabled"] == 0
    assert result["recorded_while_enabled"] > 0
    # Tripwire, not a benchmark assertion: the disabled hook is one flag
    # check, so even noisy CI hosts sit far below this bound.
    assert result["codec_overhead_fraction"] < 0.50
