"""Adaptive planner benchmark: ``--auto`` vs every static candidate.

For each dataset in the synthetic registry the whole corpus is
compressed once per static candidate (the planner's fixed choices) and
once with the per-chunk planner.  The figure of merit is the planner's
own objective, evaluated with *measured* times::

    score = CR * end_to_end_MBps
    end_to_end_MBps = bytes / max(t_compress, compressed_bytes / theta) / 1e6

i.e. compression ratio times the sustained write throughput when every
compressed byte must cross a ``theta`` MB/s link.  The ``max`` is the
steady-state (pipelined) reading of the paper's Sec-III model: compute
nodes compress chunk ``k`` while the I/O node ships chunk ``k-1``, so
the slower of the two stages sets the rate.  Compute-bound codecs and
raw passthrough both lose somewhere in the corpus at theta=4, which is
what gives the planner a real decision to make.

Gated summary metrics (all bigger-is-better):

* ``auto_over_best_static`` -- geomean(auto score) over the *best single*
  static candidate's geomean.  >= 1.0 means adaptivity pays for itself
  corpus-wide; the committed floor guards it.
* ``auto_score_geomean`` -- absolute floor for the auto scores.
* ``non_probe_fraction`` -- 1 minus the aggregate probe overhead
  (probe seconds / total planner compute seconds); the floor encodes
  the "<5 % probe overhead" budget.

Every auto archive is verified to round-trip through a stock
``PrimacyCompressor`` (no planner state) and to be byte-identical when
compressed twice.

Usage (CI runs the gate form)::

    python benchmarks/bench_planner.py --n-values 131072
    python benchmarks/bench_planner.py --n-values 131072 \
        --output results/BENCH_planner.json \
        --baseline benchmarks/baselines/BENCH_planner_baseline.json --check
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from _common import BENCH_SEED, Table, geometric_mean, machine_info
from repro.benchmark import DEFAULT_THRESHOLD, check_baseline
from repro.core.primacy import PrimacyCompressor, PrimacyConfig
from repro.datasets import dataset_names, generate_bytes
from repro.model import StepTimes, tau
from repro.parallel import ParallelCompressor
from repro.planner import DEFAULT_CANDIDATES, PlannerConfig
from repro.planner.planner import overhead_fraction

SCHEMA_VERSION = 1
DEFAULT_N_VALUES = 131072
DEFAULT_THETA_MBPS = 4.0

#: Corpus-level metrics gated against the baseline; all bigger-is-better.
_GATED_SUMMARY_METRICS = (
    "auto_over_best_static",
    "auto_score_geomean",
    "non_probe_fraction",
)


def _score(n_bytes: int, out_bytes: int, seconds: float, theta_mbps: float) -> float:
    """CR x sustained end-to-end MB/s at a ``theta``-limited link.

    Compute and transfer overlap across chunks in steady state, so the
    bottleneck stage (not the serial sum) sets the sustained rate: the
    planner's objective, the model's pipelined steady state of one node
    with no disk stage, here with measured compute time.
    """
    step = StepTimes(
        original_bytes=n_bytes,
        payload_bytes=out_bytes,
        t_compute=seconds,
        t_transfer=out_bytes / (theta_mbps * 1e6),
        t_disk=0.0,
    )
    return n_bytes / max(out_bytes, 1) * (tau(n_bytes, step.t_steady) / 1e6)


def _best_seconds(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def measure_dataset(
    name: str,
    n_values: int,
    *,
    theta_mbps: float,
    repeats: int,
    seed: int,
) -> dict:
    """Auto and per-static-candidate scores for one dataset."""
    data = generate_bytes(name, n_values, seed)
    n = len(data)
    chunk_bytes = max(n, 1 << 16)
    planner_cfg = PlannerConfig(
        base=PrimacyConfig(chunk_bytes=chunk_bytes), network_mbps=theta_mbps
    )

    row: dict = {"original_bytes": n, "static": {}}

    for cand in planner_cfg.candidates:
        comp = PrimacyCompressor(
            cand.config(planner_cfg.base), codec=cand.backend()
        )
        blob = b""

        def _compress():
            nonlocal blob
            blob, _ = comp.compress(data)

        _compress()  # warm-up (arena growth + codec init)
        seconds = _best_seconds(_compress, repeats)
        row["static"][cand.label] = {
            "compressed_bytes": len(blob),
            "compress_seconds": seconds,
            "score": _score(n, len(blob), seconds, theta_mbps),
        }

    with ParallelCompressor(planner=planner_cfg, workers=1) as auto:
        blob = b""

        def _auto():
            nonlocal blob
            blob, _ = auto.compress(data)

        _auto()  # warm-up
        first = bytes(blob)
        seconds = _best_seconds(_auto, repeats)
        decisions = auto.decisions
    if blob != first:
        raise RuntimeError(f"auto archive not reproducible for {name!r}")
    if PrimacyCompressor().decompress(blob) != data:
        raise RuntimeError(f"auto round trip failed for {name!r}")

    row["auto"] = {
        "compressed_bytes": len(blob),
        "compress_seconds": seconds,
        "score": _score(n, len(blob), seconds, theta_mbps),
        "decisions": [d.candidate.label for d in decisions],
        "probe_overhead_fraction": overhead_fraction(decisions),
        "probe_seconds": sum(d.probe_seconds for d in decisions),
        "winner_seconds": sum(d.compress_seconds for d in decisions),
    }
    return row


def run_bench(
    datasets: list[str],
    *,
    n_values: int,
    theta_mbps: float,
    repeats: int,
    seed: int,
) -> dict:
    """Benchmark every dataset; returns the JSON result document."""
    results = {
        name: measure_dataset(
            name, n_values, theta_mbps=theta_mbps, repeats=repeats, seed=seed
        )
        for name in datasets
    }

    auto_scores = [r["auto"]["score"] for r in results.values()]
    static_geomeans = {
        cand.label: geometric_mean(
            [r["static"][cand.label]["score"] for r in results.values()]
        )
        for cand in DEFAULT_CANDIDATES
    }
    best_static_label = max(static_geomeans, key=static_geomeans.get)
    auto_geomean = geometric_mean(auto_scores)
    probe = sum(r["auto"]["probe_seconds"] for r in results.values())
    winner = sum(r["auto"]["winner_seconds"] for r in results.values())
    overhead = probe / (probe + winner) if probe + winner > 0 else 0.0

    return {
        "schema": SCHEMA_VERSION,
        "machine": machine_info(),
        "config": {
            "n_values": n_values,
            "seed": seed,
            "repeats": repeats,
            "theta_mbps": theta_mbps,
            "candidates": [c.label for c in DEFAULT_CANDIDATES],
        },
        "results": results,
        "summary": {
            "auto_score_geomean": auto_geomean,
            "static_score_geomeans": static_geomeans,
            "best_static_label": best_static_label,
            "best_static_geomean": static_geomeans[best_static_label],
            "auto_over_best_static": (
                auto_geomean / static_geomeans[best_static_label]
            ),
            "probe_overhead_fraction": overhead,
            "non_probe_fraction": 1.0 - overhead,
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--datasets", default=",".join(dataset_names()),
        help="comma-separated dataset names (default: the full registry)",
    )
    parser.add_argument("--n-values", type=int, default=DEFAULT_N_VALUES)
    parser.add_argument("--theta-mbps", type=float, default=DEFAULT_THETA_MBPS)
    parser.add_argument("--repeats", type=int, default=1)
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
        theta_mbps=args.theta_mbps,
        repeats=args.repeats,
        seed=args.seed,
    )

    table = Table(
        f"Per-chunk planner (--auto) vs static candidates, "
        f"theta={args.theta_mbps:g} MB/s",
        ["dataset", "auto pick", "auto score", "best static", "static score",
         "probe ovh"],
    )
    for name, row in document["results"].items():
        best_label, best = max(
            row["static"].items(), key=lambda kv: kv[1]["score"]
        )
        picks = row["auto"]["decisions"]
        pick = picks[0] if len(set(picks)) == 1 else f"{len(set(picks))} mixed"
        table.add(
            name,
            pick,
            row["auto"]["score"],
            best_label,
            best["score"],
            f"{row['auto']['probe_overhead_fraction']:.1%}",
        )
    summary = document["summary"]
    table.note(
        f"auto geomean {summary['auto_score_geomean']:.3f} vs best single "
        f"static {summary['best_static_label']} "
        f"{summary['best_static_geomean']:.3f} "
        f"(ratio {summary['auto_over_best_static']:.3f}); "
        f"aggregate probe overhead "
        f"{summary['probe_overhead_fraction']:.2%}; "
        f"n_values={args.n_values}, best of {args.repeats}"
    )
    table.emit("BENCH_planner.txt")

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
