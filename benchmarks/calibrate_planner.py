"""Refit the planner's ``pyzlib`` compute-time tables.

The adaptive planner predicts ``pyzlib`` compress time from the
deterministic LZ77 parse-operation counts of its probe (see
``repro.planner.cost``).  This tool refits the linear model on the
current machine: for every synthetic dataset it collects full-chunk
parse counters, times the uninstrumented full-chunk compress, and
solves the least-squares system::

    ns_per_byte ~= W*(work/B) + L*(lit/B) + M*(match/B) + K

It also times the same chunks under the run parse (zlib's ``Z_RLE``,
the planner's ``pyzlib-rle`` candidate) and prints the median ns/byte.
Run it after hardware or interpreter changes, then paste the printed
values into ``repro.planner.cost.PYZLIB_PARSE_NS`` and
``PYZLIB_RLE_NS``::

    python benchmarks/calibrate_planner.py --n-values 65536 --repeats 7
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from _common import BENCH_SEED, Table
from repro.compressors.lz77 import collect_parse_stats
from repro.core.primacy import PrimacyCompressor, PrimacyConfig
from repro.datasets import dataset_names, generate_bytes
from repro.planner.candidates import Candidate


def _best_ns_per_byte(comp: PrimacyCompressor, data: bytes, repeats: int) -> float:
    """Best-of-``repeats`` whole-chunk compress time, ns per chunk byte."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        comp.compress_chunk(data)
        best = min(best, time.perf_counter() - t0)
    return best / len(data) * 1e9


def _measure(
    name: str, n_values: int, repeats: int, seed: int
) -> tuple[list[float], float, float]:
    """(normalized features + intercept, measured ns/byte, run-parse
    ns/byte) for one dataset."""
    data = generate_bytes(name, n_values, seed)
    n = len(data)
    base = PrimacyConfig(chunk_bytes=n)
    comps = []
    for strategy in ("default", "rle"):
        cand = Candidate(codec="pyzlib", high_bytes=2, strategy=strategy)
        comp = PrimacyCompressor(cand.config(base), codec=cand.backend())
        comp.compress_chunk(data)  # warm-up (arena growth)
        comps.append(comp)
    with collect_parse_stats() as parse:
        comps[0].compress_chunk(data)
    # Normalize per *chunk* byte (the unit of the time target), not per
    # tokenized-stream byte: the codec only sees the high + compressible
    # streams, and their share of the chunk varies by dataset.
    per_byte = 1.0 / n
    features = [
        parse.work * per_byte,
        parse.literal_bytes * per_byte,
        parse.match_bytes * per_byte,
        1.0,
    ]
    nsb, rle_nsb = (_best_ns_per_byte(comp, data, repeats) for comp in comps)
    return features, nsb, rle_nsb


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--datasets", default=",".join(dataset_names()))
    parser.add_argument("--n-values", type=int, default=65536)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=BENCH_SEED)
    args = parser.parse_args(argv)

    names = [d.strip() for d in args.datasets.split(",") if d.strip()]
    rows = [
        _measure(name, args.n_values, args.repeats, args.seed)
        for name in names
    ]
    design = np.array([features for features, _, _ in rows])
    target = np.array([nsb for _, nsb, _ in rows])
    rle_median = float(np.median([rle for _, _, rle in rows]))
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    predicted = design @ coef
    residual = float(((target - predicted) ** 2).sum())
    variance = float(((target - target.mean()) ** 2).sum())
    r_squared = 1.0 - residual / variance if variance else 1.0

    table = Table(
        f"pyzlib parse-time fit, n_values={args.n_values}, best of {args.repeats}",
        ["dataset", "work/B", "lit/B", "match/B", "ns/B", "predicted", "rle ns/B"],
    )
    for name, (features, nsb, rle), pred in zip(names, rows, predicted):
        table.add(name, features[0], features[1], features[2], nsb, pred, rle)
    table.note(
        f"PYZLIB_PARSE_NS = ({coef[0]:.1f}, {coef[1]:.1f}, "
        f"{coef[2]:.1f}, {coef[3]:.1f})  # R^2 = {r_squared:.3f}"
    )
    table.note(f"PYZLIB_RLE_NS = {rle_median:.1f}  # median of rle ns/B")
    table.emit("CALIBRATE_planner.txt")
    return 0


if __name__ == "__main__":
    sys.exit(main())
