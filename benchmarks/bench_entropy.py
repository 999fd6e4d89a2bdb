"""Entropy-coder kernel benchmark: batch vs reference BWT-stack stages,
the ``pyzlib`` compress stages and ``pylzo``.

Times each ``pybzip`` stage of :mod:`repro.compressors.bwt` against the
scalar loop it replaced (the ``reference_*`` oracles in
``tests/oracles.py``) on the paper's dataset family: ``mtf_encode`` /
``rle0_encode`` on the workload's BWT last column, and the decode side
``rle0_decode`` / ``mtf_decode`` / ``bwt_inverse``.  ``pyzlib`` has one
LZ77 parse and no oracle timed here, so its two compress stages, the
level-6 parse (``pyzlib_tokenize_mbps``) and the token entropy encode
(``pyzlib_token_encode_mbps``), are reported as plain rates, ungated.
So are ``pylzo``'s whole compress and decompress
(``pylzo_compress_mbps``, ``pylzo_decompress_mbps``), the codec the
planner picks for half the chunks of a checkpoint.

The workload per dataset is the PRIMACY-*preconditioned* ID stream --
the byte split + frequency-ranked ID mapping applied to the raw values,
exactly what the backend codec receives on the compressor's hot path
(raw dataset bytes essentially never reach the codecs in this repo).
Batch stages and oracles are cross-checked before timing: every
BWT-stack stage must be byte-identical.

Usage (CI runs the gate form)::

    python benchmarks/bench_entropy.py
    python benchmarks/bench_entropy.py \
        --output results/BENCH_entropy.json \
        --baseline benchmarks/baselines/BENCH_entropy_baseline.json --check

The gated metric is the whole-stack batch / reference *speedup* --
machine-relative and therefore stable on noisy CI machines -- with
conservative floors (see ``docs/PERFORMANCE.md``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from _common import BENCH_SEED, BENCH_VALUES, Table, geometric_mean, machine_info, mbps
from repro.benchmark import DEFAULT_THRESHOLD, check_baseline
from repro.compressors import bwt as batch
from repro.compressors.bwt import bwt_transform
from repro.compressors.deflate import _LEVEL_CHAIN, DeflateCodec
from repro.compressors.lz77 import tokenize
from repro.compressors.lzrw import LzrwCodec
from repro.core.idmap import IdMapper
from repro.core.kernels import (
    ScratchArena,
    linearize_ids,
    pack_sequences,
    raw_matrix,
)
from repro.core.primacy import PrimacyConfig
from repro.datasets import generate_bytes

from tests.oracles import (
    reference_bwt_inverse,
    reference_mtf_decode,
    reference_mtf_encode,
    reference_rle0_decode,
    reference_rle0_encode,
)

SCHEMA_VERSION = 1
DEFAULT_DATASETS = ("obs_temp", "msg_bt", "num_plasma")

#: The ID stream is ``high_bytes`` (2) per value, so the repo-wide
#: default of 16384 values would leave a 32 KiB codec workload -- small
#: enough that the batch kernels' fixed setup dominates and the timings
#: turn noisy.  Default to a chunk-sized workload instead, still scaled
#: by ``REPRO_BENCH_VALUES``.
DEFAULT_N_VALUES = 8 * BENCH_VALUES

#: Per-dataset metrics gated against the baseline; all bigger-is-better.
_GATED_METRICS = ("bwt_stage_speedup",)


def _id_stream(data: bytes) -> bytes:
    """The preconditioned ID stream PRIMACY hands its backend codec."""
    cfg = PrimacyConfig(chunk_bytes=max(len(data), 1 << 16))
    raw = raw_matrix(data, cfg.word_bytes)
    arena = ScratchArena()
    mapper = IdMapper(seq_bytes=cfg.high_bytes)
    seqs = pack_sequences(raw, cfg.high_bytes, arena)
    index = mapper.index_from_frequencies(mapper.frequencies(seqs))
    ids, _ = mapper.apply_ids(seqs, index)
    return linearize_ids(ids, cfg.high_bytes, cfg.linearization, arena)


def _best_seconds(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _check_equivalence(data: bytes, last: np.ndarray, primary: int) -> None:
    """Oracle contract, asserted before anything is timed."""
    arr = np.frombuffer(data, dtype=np.uint8)
    ranks = reference_mtf_encode(last)
    if not np.array_equal(batch.mtf_encode(last), ranks):
        raise RuntimeError("mtf_encode mismatch")
    syms = reference_rle0_encode(ranks)
    if not np.array_equal(batch.rle0_encode(ranks), syms):
        raise RuntimeError("rle0_encode mismatch")
    if not np.array_equal(
        batch.rle0_decode(syms, max_size=last.size), ranks
    ):
        raise RuntimeError("rle0_decode mismatch")
    if not np.array_equal(batch.mtf_decode(ranks), last):
        raise RuntimeError("mtf_decode mismatch")
    if not np.array_equal(batch.bwt_inverse(last, primary), arr):
        raise RuntimeError("bwt_inverse mismatch")


def measure_dataset(
    name: str, n_values: int, *, repeats: int, seed: int
) -> dict:
    """Per-stage times for one dataset, oracle and batch."""
    data = _id_stream(generate_bytes(name, n_values, seed))
    n = len(data)
    arr = np.frombuffer(data, dtype=np.uint8)
    last, primary = bwt_transform(arr)
    _check_equivalence(data, last, primary)

    ranks = reference_mtf_encode(last)
    syms = reference_rle0_encode(ranks)

    # (stage, reference thunk, batch thunk); timed back to back so the
    # per-stage ratio is taken under identical machine conditions.
    stages = [
        (
            "mtf_encode",
            lambda: reference_mtf_encode(last),
            lambda: batch.mtf_encode(last),
        ),
        (
            "rle0_encode",
            lambda: reference_rle0_encode(ranks),
            lambda: batch.rle0_encode(ranks),
        ),
        (
            "rle0_decode",
            lambda: reference_rle0_decode(syms),
            lambda: batch.rle0_decode(syms, max_size=last.size),
        ),
        (
            "mtf_decode",
            lambda: reference_mtf_decode(ranks),
            lambda: batch.mtf_decode(ranks),
        ),
        (
            "bwt_inverse",
            lambda: reference_bwt_inverse(last, primary),
            lambda: batch.bwt_inverse(last, primary),
        ),
    ]
    row: dict[str, float | int] = {"original_bytes": n}
    times: dict[str, tuple[float, float]] = {}
    for stage, ref_fn, batch_fn in stages:
        ref_fn(), batch_fn()  # warm-up
        t_ref = _best_seconds(ref_fn, repeats)
        t_batch = _best_seconds(batch_fn, repeats)
        times[stage] = (t_ref, t_batch)
        row[f"reference_{stage}_mbps"] = mbps(n, t_ref)
        row[f"batch_{stage}_mbps"] = mbps(n, t_batch)
        row[f"{stage}_speedup"] = t_ref / t_batch if t_batch > 0 else 1.0

    # Composite: the whole BWT stack, encode and decode.
    t_ref = sum(t for t, _ in times.values())
    t_batch = sum(t for _, t in times.values())
    row["bwt_stage_speedup"] = t_ref / t_batch if t_batch > 0 else 1.0

    # pyzlib's compress stages at the default level (ungated rates).
    max_chain, lazy = _LEVEL_CHAIN[DeflateCodec().level]
    stream = tokenize(data, max_chain=max_chain, lazy=lazy)
    t_parse = _best_seconds(
        lambda: tokenize(data, max_chain=max_chain, lazy=lazy), repeats
    )
    t_encode = _best_seconds(lambda: DeflateCodec._encode_tokens(stream), repeats)
    row["pyzlib_tokenize_mbps"] = mbps(n, t_parse)
    row["pyzlib_token_encode_mbps"] = mbps(n, t_encode)

    # pylzo's whole codec, both directions (ungated rates).
    lzo = LzrwCodec()
    blob = lzo.compress(data)
    if lzo.decompress(blob) != data:
        raise RuntimeError("pylzo round trip mismatch")
    t_compress = _best_seconds(lambda: lzo.compress(data), repeats)
    t_decompress = _best_seconds(lambda: lzo.decompress(blob), repeats)
    row["pylzo_compress_mbps"] = mbps(n, t_compress)
    row["pylzo_decompress_mbps"] = mbps(n, t_decompress)
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
    summary = {
        f"{metric}_geomean": geometric_mean(
            [float(r[metric]) for r in results.values()]
        )
        for metric in _GATED_METRICS
    }
    return {
        "schema": SCHEMA_VERSION,
        "machine": machine_info(),
        "config": {
            "n_values": n_values,
            "seed": seed,
            "repeats": repeats,
        },
        "results": results,
        "summary": summary,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--datasets", default=",".join(DEFAULT_DATASETS),
        help="comma-separated dataset names",
    )
    parser.add_argument("--n-values", type=int, default=DEFAULT_N_VALUES)
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
        "Batch BWT-stack kernels vs reference (per-stage speedups); "
        "pyzlib compress stages and pylzo (MB/s)",
        [
            "dataset", "mtf enc", "rle", "bwt inv", "BWT",
            "zlib parse", "zlib enc", "lzo enc", "lzo dec",
        ],
    )
    for name, row in document["results"].items():
        table.add(
            name,
            row["mtf_encode_speedup"],
            row["rle0_encode_speedup"],
            row["bwt_inverse_speedup"],
            row["bwt_stage_speedup"],
            row["pyzlib_tokenize_mbps"],
            row["pyzlib_token_encode_mbps"],
            row["pylzo_compress_mbps"],
            row["pylzo_decompress_mbps"],
        )
    table.note(
        "geomean: BWT "
        f"{document['summary']['bwt_stage_speedup_geomean']:.2f}x; "
        f"n_values={args.n_values}, best of {args.repeats}; "
        "zlib and lzo columns are MB/s of the ID stream (zlib at level 6), "
        "ungated"
    )
    table.emit("BENCH_entropy.txt")

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
