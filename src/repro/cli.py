"""``primacy`` command-line interface.

Subcommands::

    primacy compress   IN OUT [--codec pyzlib] [--chunk-bytes N] [--workers N] ...
    primacy decompress IN OUT [--workers N]
    primacy analyze    IN            # Fig-1/Fig-3 style statistics
    primacy codecs                   # list registered codecs
    primacy datasets [--write DIR]   # list / materialize synthetic datasets
    primacy model ...                # evaluate the performance model
    primacy fsck FILE                # verify a PRIF/PRCK file, localize damage
    primacy salvage IN OUT           # recover readable chunks from a damaged file
    primacy lint [PATHS...]          # AST codec-invariant checker (PL001..PL005)
    primacy stats [IN]               # run a workload with observability on, report
    primacy stats --remote H:P       # render a running daemon's counters
    primacy bench                    # CR/CTP/DTP over the dataset registry, gate vs baseline
    primacy serve                    # run the asyncio compression daemon
    primacy client ...               # talk to a running daemon

Exit codes are part of the contract (pinned in ``tests/test_cli.py``):
``0`` success, ``1`` runtime error, ``2`` usage error or corruption
found by ``fsck``, ``3`` benchmark regression under ``--check``, ``4``
``serve`` failed to start (e.g. the port is taken).  Messages go to
stderr.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from repro.analysis import (
    bit_probability_profile,
    byte_sequence_frequencies,
    repeatability_gain,
)
from repro.compressors import available_codecs, get_codec
from repro.core import IndexReusePolicy, PrimacyCompressor, PrimacyConfig
from repro.core.linearize import Linearization
from repro.datasets import dataset_names, generate_bytes
from repro.model import (
    ModelInputs,
    predict_base_read,
    predict_base_write,
    predict_compressed_read,
    predict_compressed_write,
)

__all__ = [
    "main",
    "build_parser",
    "EXIT_OK",
    "EXIT_ERROR",
    "EXIT_USAGE",
    "EXIT_BENCH_REGRESSION",
    "EXIT_SERVE_STARTUP",
]

#: The exit-code contract.  ``EXIT_USAGE`` doubles as "fsck found
#: corruption" (both mean: the invocation's input was not acceptable).
EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_BENCH_REGRESSION = 3
EXIT_SERVE_STARTUP = 4


def _worker_count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("workers must be >= 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse parser for the primacy CLI."""
    parser = argparse.ArgumentParser(
        prog="primacy",
        description="PRIMACY preconditioned compression (CLUSTER 2012 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compress", help="compress a file of float64 data")
    p.add_argument("input", type=Path)
    p.add_argument("output", type=Path)
    p.add_argument("--codec", default="pyzlib", help="backend solver codec")
    p.add_argument("--chunk-bytes", type=int, default=3 * 1024 * 1024)
    p.add_argument("--high-bytes", type=int, default=2)
    p.add_argument(
        "--linearization", choices=["column", "row"], default="column"
    )
    p.add_argument(
        "--index-policy",
        choices=[pol.value for pol in IndexReusePolicy],
        default=IndexReusePolicy.PER_CHUNK.value,
    )
    p.add_argument(
        "--workers", type=_worker_count, default=1, metavar="N",
        help="compress chunks with N worker processes (default: serial)",
    )
    p.add_argument(
        "--auto", action="store_true",
        help="probe each chunk and pick codec/split/linearization "
        "per chunk (ignores --codec/--high-bytes/--linearization)",
    )
    p.add_argument(
        "--network-mbps", type=float, default=4.0, metavar="THETA",
        help="--auto only: target transfer rate the planner optimizes "
        "end-to-end throughput against (default: 4)",
    )
    p.set_defaults(func=_cmd_compress)

    p = sub.add_parser("decompress", help="decompress a .pri container")
    p.add_argument("input", type=Path)
    p.add_argument("output", type=Path)
    p.add_argument(
        "--workers", type=_worker_count, default=1, metavar="N",
        help="decompress chunk records with N worker processes",
    )
    p.set_defaults(func=_cmd_decompress)

    p = sub.add_parser("analyze", help="bit/byte statistics of a float64 file")
    p.add_argument("input", type=Path)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("codecs", help="list registered codecs")
    p.set_defaults(func=_cmd_codecs)

    p = sub.add_parser("datasets", help="list or materialize synthetic datasets")
    p.add_argument("--write", type=Path, default=None, metavar="DIR")
    p.add_argument("--n-values", type=int, default=1 << 16)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_datasets)

    p = sub.add_parser("inspect", help="show the chunk table of a PRIF file")
    p.add_argument("input", type=Path)
    p.set_defaults(func=_cmd_inspect)

    p = sub.add_parser(
        "extract", help="extract a value range from a PRIF file"
    )
    p.add_argument("input", type=Path)
    p.add_argument("output", type=Path)
    p.add_argument("--start", type=int, default=0, help="first value index")
    p.add_argument("--count", type=int, default=None, help="number of values")
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("pack", help="write float64 data into a PRIF file")
    p.add_argument("input", type=Path)
    p.add_argument("output", type=Path)
    p.add_argument("--codec", default="pyzlib")
    p.add_argument("--chunk-bytes", type=int, default=3 * 1024 * 1024)
    p.add_argument(
        "--index-policy",
        choices=[pol.value for pol in IndexReusePolicy],
        default=IndexReusePolicy.PER_CHUNK.value,
    )
    p.add_argument(
        "--workers", type=_worker_count, default=1, metavar="N",
        help="overlap chunk compression with file writes using N workers",
    )
    p.add_argument(
        "--auto", action="store_true",
        help="probe each chunk and pick codec/split/linearization "
        "per chunk (ignores --codec)",
    )
    p.add_argument(
        "--network-mbps", type=float, default=4.0, metavar="THETA",
        help="--auto only: target transfer rate the planner optimizes "
        "end-to-end throughput against (default: 4)",
    )
    p.add_argument(
        "--shards", type=int, default=None, metavar="K",
        help="write a sharded archive directory with K parallel shard "
        "writers instead of one PRIF file",
    )
    p.set_defaults(func=_cmd_pack)

    p = sub.add_parser(
        "read",
        help="read chunks or value ranges from a PRIF file or sharded "
        "archive directory",
    )
    p.add_argument("input", type=Path)
    p.add_argument(
        "-o", "--output", type=Path, default=None,
        help="write the decompressed bytes here (default: summary only)",
    )
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--chunk", type=int, default=None, metavar="I",
                   help="read one chunk by global index")
    g.add_argument("--range", type=int, nargs=2, default=None,
                   metavar=("LO", "HI"), help="read chunks [LO, HI)")
    g.add_argument("--values", type=int, nargs=2, default=None,
                   metavar=("START", "COUNT"),
                   help="read COUNT values starting at START")
    p.set_defaults(func=_cmd_read)

    p = sub.add_parser(
        "compact",
        help="rewrite a sharded archive into a balanced shard layout "
        "(records copied verbatim, no recompression)",
    )
    p.add_argument("input", type=Path, help="source archive directory")
    p.add_argument("output", type=Path, help="destination archive directory")
    p.add_argument(
        "--shards", type=int, default=None, metavar="K",
        help="shard count of the new layout (default: same as source)",
    )
    p.set_defaults(func=_cmd_compact)

    p = sub.add_parser(
        "probe", help="sample a file and recommend whether to compress"
    )
    p.add_argument("input", type=Path)
    p.add_argument("--network-mbps", type=float, default=None,
                   help="target network rate for a model-based verdict")
    p.add_argument("--rho", type=float, default=8.0)
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser(
        "verify", help="check the integrity of a PRIM/PRIF container"
    )
    p.add_argument("input", type=Path)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "fsck",
        help="walk a PRIF/PRCK file or sharded archive directory and "
        "localize the first corruption",
    )
    p.add_argument("input", type=Path)
    p.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable report instead of the summary",
    )
    p.set_defaults(func=_cmd_fsck)

    p = sub.add_parser(
        "salvage",
        help="recover readable chunks from a damaged/truncated PRIF "
        "file or sharded archive directory",
    )
    p.add_argument("input", type=Path)
    p.add_argument("output", type=Path)
    p.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable recovered/lost-range report "
        "instead of the summary",
    )
    p.set_defaults(func=_cmd_salvage)

    p = sub.add_parser(
        "lint",
        help="run the codec-invariant checker over source trees "
        "(PL001..PL005; --deep adds the PL101..PL103 dataflow rules)",
    )
    p.add_argument(
        "paths", type=Path, nargs="*", default=[Path("src")],
        help="files or directories to lint (default: src)",
    )
    p.add_argument(
        "--deep", action="store_true",
        help="also run the CFG/dataflow rules (PL101..PL103): lifecycle "
        "proofs, fork-safety, encode/decode symmetry",
    )
    p.add_argument(
        "--cache", type=Path, default=None, metavar="FILE",
        help="with --deep: incremental result cache keyed by file "
        "content hashes and rule analysis versions",
    )
    p.add_argument(
        "--explain", metavar="RULE", default=None,
        help="print RULE's rationale with a minimal bad/good example "
        "and exit",
    )
    p.add_argument(
        "--format", choices=["text", "json"], default="text",
        dest="output_format", help="report format",
    )
    p.add_argument(
        "--select", metavar="RULES", default=None,
        help="comma-separated rule codes to run (default: all)",
    )
    p.add_argument(
        "--ignore", metavar="RULES", default=None,
        help="comma-separated rule codes to skip",
    )
    p.add_argument(
        "--baseline", type=Path, default=None, metavar="FILE",
        help="demote findings fingerprinted in FILE to warnings",
    )
    p.add_argument(
        "--write-baseline", type=Path, default=None, metavar="FILE",
        help="write current findings to FILE as a new baseline and exit 0",
    )
    p.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser(
        "report", help="markdown characterization of a synthetic dataset"
    )
    p.add_argument("dataset")
    p.add_argument("--n-values", type=int, default=16384)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", type=Path, default=None)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser(
        "stats",
        help="compress (and decompress) a workload with observability "
        "on and print the per-stage report",
    )
    p.add_argument(
        "input", type=Path, nargs="?", default=None,
        help="file of float64 data (alternative: --dataset)",
    )
    p.add_argument(
        "--dataset", default=None, metavar="NAME",
        help="use a synthetic dataset instead of an input file",
    )
    p.add_argument("--n-values", type=int, default=1 << 16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--codec", default="pyzlib")
    p.add_argument("--chunk-bytes", type=int, default=256 * 1024)
    p.add_argument(
        "--workers", type=_worker_count, default=1, metavar="N",
        help="run the workload through the parallel engine",
    )
    p.add_argument(
        "--skip-decompress", action="store_true",
        help="measure the compress side only",
    )
    p.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the report as JSON instead of text",
    )
    p.add_argument(
        "--trace", type=Path, default=None, metavar="FILE",
        help="also stream spans to FILE as JSONL",
    )
    p.add_argument(
        "--remote", default=None, metavar="HOST:PORT",
        help="render a running serve daemon's stat document instead of "
        "running a local workload",
    )
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser(
        "bench",
        help="measure CR/CTP/DTP over the synthetic dataset registry",
    )
    p.add_argument(
        "--datasets", default=None, metavar="A,B,...",
        help="comma-separated dataset subset (default: all)",
    )
    p.add_argument("--n-values", type=int, default=1 << 15)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--codec", default="pyzlib")
    p.add_argument("--chunk-bytes", type=int, default=256 * 1024)
    p.add_argument(
        "--workers", type=_worker_count, default=1, metavar="N",
        help="compress through the parallel engine",
    )
    p.add_argument(
        "--repeats", type=int, default=1,
        help="timed repetitions per direction (best is kept)",
    )
    p.add_argument(
        "--output", type=Path, default=None, metavar="FILE",
        help="write the result document to FILE as JSON",
    )
    p.add_argument(
        "--baseline", type=Path, default=None, metavar="FILE",
        help="compare against a stored result document",
    )
    p.add_argument(
        "--check", action="store_true",
        help="exit non-zero if any metric regressed past --threshold",
    )
    p.add_argument(
        "--threshold", type=float, default=0.10,
        help="relative drop vs baseline that counts as a regression",
    )
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("model", help="evaluate the Sec-III performance model")
    p.add_argument("--chunk-mb", type=float, default=3.0)
    p.add_argument("--rho", type=float, default=8.0)
    p.add_argument("--network-mbps", type=float, default=34.0)
    p.add_argument("--disk-mbps", type=float, default=34.0)
    p.add_argument("--prec-mbps", type=float, default=400.0)
    p.add_argument("--comp-mbps", type=float, default=18.0)
    p.add_argument("--alpha1", type=float, default=0.25)
    p.add_argument("--alpha2", type=float, default=0.3)
    p.add_argument("--sigma-ho", type=float, default=0.2)
    p.add_argument("--sigma-lo", type=float, default=0.8)
    p.set_defaults(func=_cmd_model)

    p = sub.add_parser(
        "serve",
        help="run the asyncio compression daemon (binary protocol + "
        "HTTP shim on one port; SIGTERM drains gracefully)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port", type=int, default=9653,
        help="TCP port (0: pick a free port and announce it)",
    )
    p.add_argument(
        "--workers", type=_worker_count, default=None, metavar="N",
        help="engine pool size (default: CPU count)",
    )
    p.add_argument(
        "--max-pending", type=int, default=None, metavar="N",
        help="in-flight chunk window of the engine",
    )
    p.add_argument(
        "--max-payload-bytes", type=int, default=None, metavar="N",
        help="per-request payload cap (default: protocol cap)",
    )
    p.add_argument(
        "--max-inflight-bytes", type=int, default=None, metavar="N",
        help="acknowledged-bytes ceiling before BUSY refusals",
    )
    p.add_argument(
        "--max-inflight-requests", type=int, default=None, metavar="N",
        help="acknowledged-request ceiling before BUSY refusals",
    )
    p.add_argument(
        "--quota-bps", type=float, default=0.0, metavar="BPS",
        help="per-tenant token-bucket refill rate in bytes/s "
        "(0: quotas off)",
    )
    p.add_argument(
        "--quota-burst-bytes", type=float, default=None, metavar="N",
        help="per-tenant bucket capacity (default: one second of rate)",
    )
    p.add_argument(
        "--drain-timeout", type=float, default=30.0, metavar="SECONDS",
        help="max time a SIGTERM drain waits for acknowledged requests",
    )
    p.add_argument(
        "--drain-checkpoint", type=Path, default=None, metavar="FILE",
        help="seal final counters into FILE as a PRCK checkpoint on drain",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "client", help="talk to a running serve daemon"
    )
    p.add_argument(
        "--connect", default="127.0.0.1:9653", metavar="HOST:PORT",
        help="daemon address (default: 127.0.0.1:9653)",
    )
    csub = p.add_subparsers(dest="client_command", required=True)
    c = csub.add_parser("compress", help="compress a file via the daemon")
    c.add_argument("input", type=Path)
    c.add_argument("output", type=Path)
    c.add_argument("--codec", default="pyzlib")
    c.add_argument("--chunk-bytes", type=int, default=3 * 1024 * 1024)
    c.add_argument("--high-bytes", type=int, default=2)
    c.add_argument(
        "--linearization", choices=["column", "row"], default="column"
    )
    c.add_argument(
        "--auto", action="store_true",
        help="planner-driven per-chunk codec choice (server-side --auto)",
    )
    c.add_argument(
        "--network-mbps", type=float, default=4.0, metavar="THETA",
        help="--auto only: planner target transfer rate",
    )
    c.add_argument("--tenant", default="", help="quota accounting name")
    c.set_defaults(func=_cmd_client)
    c = csub.add_parser(
        "decompress", help="decompress a container via the daemon"
    )
    c.add_argument("input", type=Path)
    c.add_argument("output", type=Path)
    c.add_argument("--tenant", default="", help="quota accounting name")
    c.set_defaults(func=_cmd_client)
    c = csub.add_parser("stat", help="print the daemon's stat document")
    c.set_defaults(func=_cmd_client)
    c = csub.add_parser("health", help="print the daemon's health document")
    c.set_defaults(func=_cmd_client)

    return parser


def _make_config(args: argparse.Namespace) -> PrimacyConfig:
    return PrimacyConfig(
        codec=args.codec,
        chunk_bytes=args.chunk_bytes,
        high_bytes=args.high_bytes,
        linearization=(
            Linearization.COLUMN
            if args.linearization == "column"
            else Linearization.ROW
        ),
        index_policy=IndexReusePolicy(args.index_policy),
    )


def _planner_config(args: argparse.Namespace) -> "object":
    from repro.planner import PlannerConfig

    return PlannerConfig(
        base=PrimacyConfig(chunk_bytes=args.chunk_bytes),
        network_mbps=args.network_mbps,
    )


def _print_decisions(decisions) -> None:
    from repro.planner import overhead_fraction

    counts: dict[str, int] = {}
    for d in decisions:
        counts[d.candidate.label] = counts.get(d.candidate.label, 0) + 1
    picks = "  ".join(
        f"{label}:{n}" for label, n in sorted(counts.items())
    )
    print(f"planner:   {picks}  "
          f"(probe overhead {overhead_fraction(decisions):.1%})")


def _cmd_compress(args: argparse.Namespace) -> int:
    data = args.input.read_bytes()
    if args.auto:
        from repro.planner import PlannedCompressor

        workers = args.workers if args.workers > 1 else 1
        with PlannedCompressor(_planner_config(args), workers=workers) as pc:
            out, stats = pc.compress(data)
            decisions = pc.last_decisions
        args.output.write_bytes(out)
        print(
            f"{len(data)} -> {len(out)} bytes  "
            f"CR={stats.compression_ratio:.3f}  chunks={len(stats.chunks)}"
        )
        _print_decisions(decisions)
        return EXIT_OK
    config = _make_config(args)
    if args.workers > 1:
        from repro.parallel import ParallelCompressor

        with ParallelCompressor(config, workers=args.workers) as compressor:
            out, stats = compressor.compress(data)
    else:
        out, stats = PrimacyCompressor(config).compress(data)
    args.output.write_bytes(out)
    print(
        f"{len(data)} -> {len(out)} bytes  "
        f"CR={stats.compression_ratio:.3f}  "
        f"alpha2={stats.alpha2:.3f}  sigma_ho={stats.sigma_ho:.3f}  "
        f"meta={stats.metadata_bytes}B  chunks={len(stats.chunks)}"
    )
    return EXIT_OK


def _cmd_decompress(args: argparse.Namespace) -> int:
    data = args.input.read_bytes()
    if args.workers > 1:
        from repro.parallel import ParallelDecompressor

        with ParallelDecompressor(workers=args.workers) as decompressor:
            out = decompressor.decompress(data)
    else:
        out = PrimacyCompressor().decompress(data)
    args.output.write_bytes(out)
    print(f"{len(data)} -> {len(out)} bytes")
    return EXIT_OK


def _cmd_analyze(args: argparse.Namespace) -> int:
    data = args.input.read_bytes()
    if len(data) < 8:
        print("need at least one float64 value", file=sys.stderr)
        return EXIT_ERROR
    usable = len(data) - (len(data) % 8)
    values = np.frombuffer(data[:usable], dtype="<f8")
    prof = bit_probability_profile(values, name=str(args.input))
    exp_rep, man_rep = byte_sequence_frequencies(values, name=str(args.input))
    rep = repeatability_gain(values, name=str(args.input))
    print(f"values:                 {values.size}")
    print(f"exponent bit regularity: {prof.exponent_mean:.3f}")
    print(f"mantissa bit regularity: {prof.mantissa_mean:.3f}")
    print(f"unique exponent pairs:   {exp_rep.n_unique}")
    print(f"unique mantissa pairs:   {man_rep.n_unique}")
    print(f"top-byte before mapping: {rep.top_byte_before:.3f}")
    print(f"top-byte after mapping:  {rep.top_byte_after:.3f}")
    print(f"repeatability gain:      {rep.top_byte_gain:+.3f}")
    return EXIT_OK


def _cmd_codecs(_: argparse.Namespace) -> int:
    for name in available_codecs():
        codec = get_codec(name)
        doc = (type(codec).__doc__ or "").strip().splitlines()[0]
        print(f"{name:10s} {doc}")
    return EXIT_OK


def _cmd_datasets(args: argparse.Namespace) -> int:
    if args.write is None:
        for name in dataset_names():
            print(name)
        return EXIT_OK
    args.write.mkdir(parents=True, exist_ok=True)
    for name in dataset_names():
        path = args.write / f"{name}.f64"
        path.write_bytes(generate_bytes(name, args.n_values, args.seed))
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_inspect(args: argparse.Namespace) -> int:
    from repro.storage import PrimacyFileReader

    with PrimacyFileReader(args.input) as reader:
        cfg = reader.info.config
        print(f"codec:       {cfg.codec}")
        print(f"word/high:   {cfg.word_bytes}/{cfg.high_bytes} bytes")
        print(f"chunk size:  {cfg.chunk_bytes}")
        print(f"policy:      {cfg.index_policy.value}")
        print(f"planned:     {'yes' if reader.info.planned else 'no'}")
        print(f"values:      {reader.n_values}")
        print(f"chunks:      {reader.n_chunks}")
        print(f"{'id':>4s} {'offset':>10s} {'bytes':>9s} {'values':>9s} "
              f"{'index':>7s} {'base':>5s}")
        for i, entry in enumerate(reader.chunk_entries()):
            kind = "inline" if entry.inline_index else "reused"
            print(f"{i:4d} {entry.offset:10d} {entry.length:9d} "
                  f"{entry.n_values:9d} {kind:>7s} {entry.index_base:5d}")
    return EXIT_OK


def _cmd_extract(args: argparse.Namespace) -> int:
    from repro.storage import PrimacyFileReader

    with PrimacyFileReader(args.input) as reader:
        count = args.count if args.count is not None else reader.n_values - args.start
        data = reader.read_values(args.start, count)
    args.output.write_bytes(data)
    print(f"extracted {count} values ({len(data)} bytes) "
          f"starting at value {args.start}")
    return EXIT_OK


def _cmd_pack(args: argparse.Namespace) -> int:
    from repro.storage import PrimacyFileWriter, ShardedArchiveWriter

    data = args.input.read_bytes()
    workers = args.workers if args.workers > 1 else None
    if args.shards is not None and args.shards < 1:
        print("error: --shards must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    if args.auto:
        if IndexReusePolicy(args.index_policy) is not IndexReusePolicy.PER_CHUNK:
            print("error: --auto requires --index-policy per-chunk",
                  file=sys.stderr)
            return EXIT_USAGE
        if args.shards is not None:
            with ShardedArchiveWriter(
                args.output, planner=_planner_config(args),
                shards=args.shards, workers=workers,
            ) as writer:
                writer.write(data)
        else:
            with PrimacyFileWriter(
                args.output, planner=_planner_config(args), workers=workers
            ) as writer:
                writer.write(data)
        stats = writer.stats
        print(f"{len(data)} -> {stats.container_bytes} bytes  "
              f"CR={stats.compression_ratio:.3f}  chunks={writer.n_chunks}")
        _print_decisions(writer.decisions)
        return EXIT_OK
    if args.shards is not None and (
        IndexReusePolicy(args.index_policy) is not IndexReusePolicy.PER_CHUNK
    ):
        print("error: --shards requires --index-policy per-chunk",
              file=sys.stderr)
        return EXIT_USAGE
    config = PrimacyConfig(
        codec=args.codec,
        chunk_bytes=args.chunk_bytes,
        index_policy=IndexReusePolicy(args.index_policy),
    )
    if args.shards is not None:
        with ShardedArchiveWriter(
            args.output, config, shards=args.shards, workers=workers
        ) as writer:
            writer.write(data)
        stats = writer.stats
        print(f"{len(data)} -> {stats.container_bytes} bytes  "
              f"CR={stats.compression_ratio:.3f}  chunks={writer.n_chunks}  "
              f"shards={args.shards}")
        return EXIT_OK
    with PrimacyFileWriter(args.output, config, workers=workers) as writer:
        writer.write(data)
    stats = writer.stats
    print(f"{len(data)} -> {stats.container_bytes} bytes  "
          f"CR={stats.compression_ratio:.3f}  chunks={writer.n_chunks}")
    return EXIT_OK


def _cmd_read(args: argparse.Namespace) -> int:
    from repro.compressors import CodecError
    from repro.storage import PrimacyFileReader, ShardedArchiveReader

    try:
        if args.input.is_dir():
            reader = ShardedArchiveReader(args.input)
        else:
            reader = PrimacyFileReader(args.input)
    except (CodecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    with reader:
        try:
            if args.chunk is not None:
                data = reader.read_chunk(args.chunk)
                what = f"chunk {args.chunk}"
            elif args.range is not None:
                lo, hi = args.range
                data = reader.read_range(lo, hi)
                what = f"chunks [{lo}, {hi})"
            else:
                start, count = args.values
                data = reader.read_values(start, count)
                what = f"values [{start}, {start + count})"
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except CodecError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_ERROR
    if args.output is not None:
        args.output.write_bytes(data)
        print(f"read {what}: {len(data)} bytes -> {args.output}")
    else:
        print(f"read {what}: {len(data)} bytes")
    return EXIT_OK


def _cmd_compact(args: argparse.Namespace) -> int:
    from repro.compressors import CodecError
    from repro.storage import compact_archive

    try:
        manifest = compact_archive(
            args.input, args.output, shards=args.shards
        )
    except (CodecError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    sizes = [s.file_bytes for s in manifest.shards]
    print(f"compacted {args.input} -> {args.output}: "
          f"{manifest.n_chunks} chunks across {len(manifest.shards)} "
          f"shard(s), {min(sizes)}-{max(sizes)} bytes per shard")
    return EXIT_OK


def _cmd_probe(args: argparse.Namespace) -> int:
    from repro.analysis import estimate_compressibility

    data = args.input.read_bytes()
    probe = estimate_compressibility(data)
    print(f"sampled:            {probe.sample_bytes} bytes")
    print(f"vanilla zlib-like:  CR={probe.vanilla_ratio:.3f} "
          f"@ {probe.vanilla_mbps:.2f} MB/s")
    print(f"PRIMACY:            CR={probe.primacy_ratio:.3f} "
          f"@ {probe.primacy_mbps:.2f} MB/s")
    print(f"stages:             preconditioner {probe.preconditioner_mbps:.2f} "
          f"MB/s, entropy {probe.compressor_mbps:.2f} MB/s")
    print(f"model params:       alpha1={probe.alpha1:.3f} "
          f"alpha2={probe.alpha2:.3f} sigma_ho={probe.sigma_ho:.3f} "
          f"sigma_lo={probe.sigma_lo:.3f}")
    print(f"hard-to-compress:   {'yes' if probe.hard_to_compress else 'no'}")
    if args.network_mbps is not None:
        verdict = probe.recommend(
            network_bps=args.network_mbps * 1e6, rho=args.rho
        )
        print(f"model verdict at theta={args.network_mbps} MB/s, "
              f"rho={args.rho:g}: {'COMPRESS' if verdict else 'WRITE RAW'}")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    data = args.input.read_bytes()
    if data[:4] == b"PRIF":
        from repro.storage import PrimacyFileReader
        import io

        with PrimacyFileReader(io.BytesIO(data)) as reader:
            restored = reader.read_all()
            print(f"PRIF ok: {reader.n_chunks} chunks, "
                  f"{reader.n_values} values, {len(restored)} bytes, "
                  "all checksums verified")
        return EXIT_OK
    if data[:4] == b"PRIM":
        restored = PrimacyCompressor().decompress(data)
        print(f"PRIM ok: {len(restored)} bytes, all checksums verified")
        return EXIT_OK
    print("error: not a PRIM or PRIF container", file=sys.stderr)
    return EXIT_ERROR


def _cmd_fsck(args: argparse.Namespace) -> int:
    import json

    from repro.storage.verify import fsck, fsck_archive

    if args.input.is_dir():
        report = fsck_archive(args.input)
    else:
        report = fsck(args.input)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.summary())
    return EXIT_OK if report.ok else EXIT_USAGE


def _cmd_salvage(args: argparse.Namespace) -> int:
    import json

    from repro.compressors import CodecError
    from repro.storage.verify import salvage_archive, salvage_prif

    try:
        if args.input.is_dir():
            result = salvage_archive(args.input, args.output)
        else:
            result = salvage_prif(args.input, args.output)
    except CodecError as exc:
        print(f"error: nothing salvageable: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        print(result.summary())
        print(f"wrote {args.output}")
    return EXIT_OK if result.n_recovered else EXIT_ERROR


def _explain_rule(code: str) -> int:
    from repro.lint import all_rules, deep_rules

    catalog = {r.code: r for r in all_rules() + deep_rules()}
    rule = catalog.get(code)
    if rule is None:
        known = ", ".join(sorted(catalog))
        print(f"unknown rule {code!r}; known: {known}", file=sys.stderr)
        return EXIT_USAGE

    def _example(kind: str, fallback: str) -> tuple[str, str]:
        # Prefer the repo's fixture file (the one the rule's own tests
        # run against); fall back to the rule's built-in snippet.
        fixture = Path(
            f"tests/lint/fixtures/{code.lower()}_{kind}.py"
        )
        if fixture.is_file():
            return str(fixture), fixture.read_text(encoding="utf-8")
        return "built-in example", fallback

    print(f"{rule.code}: {rule.title}")
    tier = "deep (--deep)" if rule.code >= "PL100" else "shallow"
    print(f"tier: {tier}, analysis version {rule.analysis_version}")
    print()
    print(rule.rationale)
    for kind, fallback, label in (
        ("bad", rule.example_bad, "flagged"),
        ("good", rule.example_good, "clean"),
    ):
        source, text = _example(kind, fallback)
        if not text:
            continue
        print()
        print(f"--- {label} ({source}) ---")
        print(text.rstrip("\n"))
    return EXIT_OK


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import (
        CacheStats,
        LintCache,
        LintError,
        Severity,
        all_rules,
        deep_lint,
        deep_rules,
        format_findings_json,
        format_findings_text,
        lint_paths,
        load_baseline,
        write_baseline,
    )

    if args.explain is not None:
        return _explain_rule(args.explain.strip().upper())

    if args.list_rules:
        rules = all_rules() + (deep_rules() if args.deep else [])
        for rule in rules:
            print(f"{rule.code}  {rule.title}")
            print(f"       {rule.rationale}")
        return EXIT_OK

    def _codes(text: str | None) -> list[str] | None:
        if text is None:
            return None
        return [c.strip() for c in text.split(",") if c.strip()]

    try:
        baseline = (
            load_baseline(args.baseline) if args.baseline is not None else None
        )
        if args.deep:
            stats = CacheStats()
            findings = deep_lint(
                args.paths,
                all_rules() + deep_rules(),
                baseline=baseline,
                cache=LintCache(args.cache),
                select=_codes(args.select),
                ignore=_codes(args.ignore),
                stats=stats,
            )
            if args.cache is not None:
                print(stats.summary(), file=sys.stderr)
        else:
            findings = lint_paths(
                args.paths,
                select=_codes(args.select),
                ignore=_codes(args.ignore),
                baseline=baseline,
            )
    except LintError as exc:
        print(f"lint error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.write_baseline is not None:
        count = write_baseline(args.write_baseline, findings)
        print(f"wrote {count} fingerprint(s) to {args.write_baseline}")
        return EXIT_OK

    report = (
        format_findings_json(findings)
        if args.output_format == "json"
        else format_findings_text(findings)
    )
    print(report)
    return (
        EXIT_ERROR
        if any(f.severity is Severity.ERROR for f in findings)
        else EXIT_OK
    )


def _parse_address(text: str) -> tuple[str, int] | None:
    host, sep, port_text = text.rpartition(":")
    if not sep or not host or not port_text.isdigit():
        return None
    return host, int(port_text)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.daemon import ServeConfig, serve

    kwargs: dict = {}
    for name in (
        "max_payload_bytes", "max_inflight_bytes", "max_inflight_requests"
    ):
        value = getattr(args, name)
        if value is not None:
            kwargs[name] = value
    if args.drain_checkpoint is not None:
        kwargs["drain_checkpoint"] = str(args.drain_checkpoint)
    try:
        config = ServeConfig(
            host=args.host,
            port=args.port,
            workers=args.workers,
            max_pending=args.max_pending,
            quota_bps=args.quota_bps,
            quota_burst_bytes=args.quota_burst_bytes,
            drain_timeout=args.drain_timeout,
            **kwargs,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    def announce(address: tuple[str, int]) -> None:
        host, port = address
        print(f"primacy serve listening on {host}:{port}", flush=True)

    try:
        serve(config, announce)
    except OSError as exc:
        # Binding failures surface before announce() -- a supervisor
        # watching exit codes can tell "port taken" from a crash.
        print(f"error: serve failed to start: {exc}", file=sys.stderr)
        return EXIT_SERVE_STARTUP
    return EXIT_OK


def _cmd_client(args: argparse.Namespace) -> int:
    import json

    from repro.core.linearize import Linearization as _Lin
    from repro.serve import RequestConfig, ServeClient

    address = _parse_address(args.connect)
    if address is None:
        print("error: --connect must be HOST:PORT", file=sys.stderr)
        return EXIT_USAGE
    with ServeClient(*address) as client:
        if args.client_command == "health":
            print(json.dumps(client.health(), indent=2, sort_keys=True))
            return EXIT_OK
        if args.client_command == "stat":
            print(json.dumps(client.stat(), indent=2, sort_keys=True))
            return EXIT_OK
        data = args.input.read_bytes()
        if args.client_command == "compress":
            config = RequestConfig(
                codec=args.codec,
                chunk_bytes=args.chunk_bytes,
                high_bytes=args.high_bytes,
                linearization=(
                    _Lin.COLUMN
                    if args.linearization == "column"
                    else _Lin.ROW
                ),
                theta_milli=int(round(args.network_mbps * 1000)),
            )
            out = client.compress(
                data, config=config, auto=args.auto, tenant=args.tenant
            )
        else:
            out = client.decompress(data, tenant=args.tenant)
        args.output.write_bytes(out)
        print(f"{len(data)} -> {len(out)} bytes")
    return EXIT_OK


def _remote_stats(args: argparse.Namespace) -> int:
    import json

    from repro.serve import ServeClient

    address = _parse_address(args.remote)
    if address is None:
        print("error: --remote must be HOST:PORT", file=sys.stderr)
        return EXIT_USAGE
    with ServeClient(*address) as client:
        doc = client.stat()
    if args.as_json:
        print(json.dumps(doc, indent=2, sort_keys=True))
        return EXIT_OK
    server = doc.get("server", {})
    engine = doc.get("engine", {})
    print(f"remote:    {args.remote}")
    print(
        f"requests:  acknowledged={server.get('acknowledged', 0)}  "
        f"answered={server.get('answered', 0)}  "
        f"in-flight={server.get('inflight_requests', 0)}"
    )
    print(
        f"bytes:     in={server.get('bytes_in', 0)}  "
        f"out={server.get('bytes_out', 0)}  "
        f"in-flight={server.get('inflight_bytes', 0)}"
    )
    print(
        f"queue:     depth={server.get('queue_depth', 0)}  "
        f"uptime={server.get('uptime_seconds', 0.0):.1f}s  "
        f"draining={server.get('draining', False)}"
    )
    print(
        f"engine:    workers={engine.get('workers', 0)}  "
        f"tasks={engine.get('tasks', 0)}  "
        f"busy={engine.get('busy_fraction', 0.0):.1%}"
    )
    storage = doc.get("storage", {})
    if storage:
        print("storage:   " + "  ".join(
            f"{name.split('.', 1)[1]}={value}"
            for name, value in storage.items()
        ))
    return EXIT_OK


def _cmd_stats(args: argparse.Namespace) -> int:
    import json

    from repro import obs

    if args.remote is not None:
        if args.input is not None or args.dataset is not None:
            print(
                "error: --remote excludes INPUT/--dataset",
                file=sys.stderr,
            )
            return EXIT_USAGE
        return _remote_stats(args)
    if (args.input is None) == (args.dataset is None):
        print(
            "error: provide exactly one of INPUT or --dataset",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if args.dataset is not None:
        data = generate_bytes(args.dataset, args.n_values, args.seed)
        source = f"dataset {args.dataset!r} ({args.n_values} values)"
    else:
        data = args.input.read_bytes()
        source = str(args.input)
    config = PrimacyConfig(codec=args.codec, chunk_bytes=args.chunk_bytes)

    obs.reset()
    obs.enable(trace_path=args.trace)
    try:
        if args.workers > 1:
            from repro.parallel import ParallelCompressor, ParallelDecompressor

            with ParallelCompressor(config, workers=args.workers) as comp:
                out, _ = comp.compress(data)
            if not args.skip_decompress:
                with ParallelDecompressor(workers=args.workers) as dec:
                    dec.decompress(out)
        else:
            out, _ = PrimacyCompressor(config).compress(data)
            if not args.skip_decompress:
                PrimacyCompressor(config).decompress(out)
    finally:
        obs.disable()
    report = obs.report.collect()

    if args.as_json:
        report["workload"] = {
            "source": source,
            "original_bytes": len(data),
            "compressed_bytes": len(out),
        }
        print(json.dumps(report, indent=2, sort_keys=True))
        return EXIT_OK
    ratio = len(data) / len(out) if out else 1.0
    print(f"workload:  {source}")
    print(f"bytes:     {len(data)} -> {len(out)}  CR={ratio:.3f}")
    print(obs.report.render_text(report))
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    import json

    from repro.benchmark import check_baseline, run_bench

    if args.check and args.baseline is None:
        print("error: --check requires --baseline", file=sys.stderr)
        return EXIT_USAGE
    datasets = (
        [d.strip() for d in args.datasets.split(",") if d.strip()]
        if args.datasets is not None
        else None
    )
    config = PrimacyConfig(codec=args.codec, chunk_bytes=args.chunk_bytes)
    document = run_bench(
        datasets,
        n_values=args.n_values,
        config=config,
        repeats=args.repeats,
        seed=args.seed,
        workers=args.workers,
    )
    print(f"{'dataset':20s} {'CR':>7s} {'CTP MB/s':>9s} {'DTP MB/s':>9s}")
    for name, row in sorted(document["results"].items()):
        print(
            f"{name:20s} {row['compression_ratio']:7.3f} "
            f"{row['compress_mbps']:9.2f} {row['decompress_mbps']:9.2f}"
        )
    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(json.dumps(document, indent=2, sort_keys=True))
        print(f"wrote {args.output}")
    if args.baseline is not None:
        regressed = check_baseline(document, args.baseline, args.threshold)
        if regressed and args.check:
            return EXIT_BENCH_REGRESSION
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis import dataset_report

    text = dataset_report(args.dataset, args.n_values, args.seed)
    if args.output is not None:
        args.output.write_text(text)
        print(f"wrote {args.output}")
    else:
        print(text)
    return EXIT_OK


def _cmd_model(args: argparse.Namespace) -> int:
    inputs = ModelInputs(
        chunk_bytes=args.chunk_mb * 1e6,
        rho=args.rho,
        network_bps=args.network_mbps * 1e6,
        disk_write_bps=args.disk_mbps * 1e6,
        preconditioner_bps=args.prec_mbps * 1e6,
        compressor_bps=args.comp_mbps * 1e6,
        alpha1=args.alpha1,
        alpha2=args.alpha2,
        sigma_ho=args.sigma_ho,
        sigma_lo=args.sigma_lo,
    )
    rows = [
        ("base write", predict_base_write(inputs)),
        ("base read", predict_base_read(inputs)),
        ("primacy write", predict_compressed_write(inputs)),
        ("primacy read", predict_compressed_read(inputs)),
    ]
    for label, out in rows:
        print(f"{label:14s} tau = {out.throughput_mbps(inputs):8.2f} MB/s "
              f"(t_total = {out.t_total:.4f}s)")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # Process boundary: every failure becomes a message on stderr plus a
    # non-zero exit status, typed or not.
    except Exception as exc:  # pragma: no cover - CLI guard  # primacy-lint: disable=PL001 -- converted to exit status
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
