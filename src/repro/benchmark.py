"""Throughput benchmark harness behind ``primacy bench``.

Measures the paper's three headline metrics -- compression ratio (CR),
compression throughput (CTP), and decompression throughput (DTP), both
in MB/s of *original* data -- over the synthetic dataset registry, and
compares a run against a stored baseline so CI can gate on regressions.

The result dict is plain JSON (written to ``results/BENCH_obs.json`` by
the CI job); :func:`compare` returns human-readable regression messages
for every metric that fell more than ``threshold`` below the baseline,
and :func:`check_baseline` prints them for a ``--check`` gate.  The
``benchmarks/bench_*.py`` gates share both, naming their own metrics.
Throughput comparisons are only as stable as the machine they run on,
so committed baselines should be conservative floors, not hot-cache
bests; the ratio comparison is fully deterministic.
"""

from __future__ import annotations

import json
import sys
import time
from collections.abc import Sequence
from pathlib import Path

from repro.core.primacy import PrimacyCompressor, PrimacyConfig
from repro.datasets import dataset_names, generate_bytes

__all__ = [
    "SCHEMA_VERSION",
    "DEFAULT_THRESHOLD",
    "measure_dataset",
    "run_bench",
    "compare",
    "check_baseline",
]

SCHEMA_VERSION = 1

#: Relative drop (vs baseline) above which a metric counts as regressed.
DEFAULT_THRESHOLD = 0.10

#: Metrics ``primacy bench`` compares against a baseline; all are
#: "bigger is better".
_GATED_METRICS = ("compression_ratio", "compress_mbps", "decompress_mbps")


def measure_dataset(
    name: str,
    n_values: int,
    config: PrimacyConfig,
    *,
    repeats: int = 1,
    seed: int = 0,
    workers: int = 1,
) -> dict:
    """CR/CTP/DTP for one synthetic dataset.

    Keeps the best (minimum) time over ``repeats`` runs per direction --
    the least noisy estimator of the true cost.  The round trip is
    verified; a silently lossy pipeline must fail the bench, not post a
    fast number.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    data = generate_bytes(name, n_values, seed)

    def _compress_once():
        if workers > 1:
            from repro.parallel import ParallelCompressor

            with ParallelCompressor(config, workers=workers) as comp:
                return comp.compress(data)
        return PrimacyCompressor(config).compress(data)

    best_ct = float("inf")
    out = b""
    for _ in range(repeats):
        t0 = time.perf_counter()
        out, _stats = _compress_once()
        best_ct = min(best_ct, time.perf_counter() - t0)

    best_dt = float("inf")
    restored = b""
    for _ in range(repeats):
        t0 = time.perf_counter()
        restored = PrimacyCompressor(config).decompress(out)
        best_dt = min(best_dt, time.perf_counter() - t0)
    if restored != data:
        raise RuntimeError(f"bench round trip failed for dataset {name!r}")

    n = len(data)
    return {
        "original_bytes": n,
        "compressed_bytes": len(out),
        "compression_ratio": n / len(out) if out else 1.0,
        "compress_mbps": n / 1e6 / best_ct if best_ct > 0 else float("inf"),
        "decompress_mbps": n / 1e6 / best_dt if best_dt > 0 else float("inf"),
    }


def run_bench(
    datasets: list[str] | None = None,
    *,
    n_values: int = 1 << 15,
    config: PrimacyConfig | None = None,
    repeats: int = 1,
    seed: int = 0,
    workers: int = 1,
) -> dict:
    """Benchmark every requested dataset; returns the result document."""
    config = config or PrimacyConfig()
    names = datasets if datasets is not None else dataset_names()
    unknown = sorted(set(names) - set(dataset_names()))
    if unknown:
        raise ValueError(f"unknown dataset(s): {', '.join(unknown)}")
    results = {
        name: measure_dataset(
            name, n_values, config,
            repeats=repeats, seed=seed, workers=workers,
        )
        for name in names
    }
    return {
        "schema": SCHEMA_VERSION,
        "config": {
            "codec": config.codec,
            "chunk_bytes": config.chunk_bytes,
            "n_values": n_values,
            "seed": seed,
            "workers": workers,
            "repeats": repeats,
        },
        "results": results,
    }


def compare(
    current: dict,
    baseline: dict,
    threshold: float = DEFAULT_THRESHOLD,
    *,
    metrics: Sequence[str] = _GATED_METRICS,
    section: str = "results",
) -> list[str]:
    """Regression messages for ``metrics`` > ``threshold`` below baseline.

    Every gated metric is bigger-is-better.  ``section="results"`` gates
    the per-dataset rows; only datasets present in both documents are
    compared, so a baseline can cover a subset (or an old superset) of
    the current registry.  ``section="summary"`` gates the document's
    flat ``summary`` dict as one row named ``summary``.  Metrics missing
    from either side, or with a non-positive baseline, are skipped.  An
    empty list means the gate passes.
    """
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    if section == "results":
        cur_rows = current.get("results", {})
        base_rows = baseline.get("results", {})
    elif section == "summary":
        cur_rows = {"summary": current.get("summary", {})}
        base_rows = {"summary": baseline.get("summary", {})}
    else:
        raise ValueError("section must be 'results' or 'summary'")
    regressions: list[str] = []
    for name, cur in sorted(cur_rows.items()):
        base = base_rows.get(name)
        if base is None:
            continue
        for metric in metrics:
            if metric not in base or metric not in cur:
                continue
            ref = float(base[metric])
            got = float(cur[metric])
            if ref <= 0:
                continue
            drop = (ref - got) / ref
            if drop > threshold:
                regressions.append(
                    f"{name}: {metric} regressed {drop:.1%} "
                    f"(baseline {ref:.3f}, current {got:.3f})"
                )
    return regressions


def check_baseline(
    document: dict,
    baseline_path: Path,
    threshold: float = DEFAULT_THRESHOLD,
    *,
    metrics: Sequence[str] = _GATED_METRICS,
    section: str = "results",
) -> bool:
    """Gate ``document`` against the baseline file and print the verdict.

    Each regression goes to stderr as ``REGRESSION <message>``; a clean
    run prints one ``no regressions`` line.  Returns whether anything
    regressed -- the ``--check`` gates exit 3 on it.
    """
    baseline = json.loads(baseline_path.read_text())
    regressions = compare(
        document, baseline, threshold, metrics=metrics, section=section
    )
    for message in regressions:
        print(f"REGRESSION {message}", file=sys.stderr)
    if not regressions:
        print(f"no regressions vs {baseline_path} (threshold {threshold:.0%})")
    return bool(regressions)
