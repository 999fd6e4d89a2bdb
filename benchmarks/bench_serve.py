"""Serving-path benchmark: requests/s and MB/s at 1/4/16 clients.

Starts an in-process ``PrimacyServer`` (real listening socket, real
wire protocol) and drives it with concurrent asyncio clients issuing
``compress`` requests, reporting requests/s and payload MB/s at each
concurrency level plus the one-shot engine throughput on the same
workload for reference.

Usage (CI runs the gate form)::

    python benchmarks/bench_serve.py
    python benchmarks/bench_serve.py \
        --output results/BENCH_serve.json \
        --baseline benchmarks/baselines/BENCH_serve_baseline.json --check

Gated metrics are machine-relative, so the gate is stable on noisy CI
machines:

* ``scaleup_16_over_1`` -- throughput at 16 clients over 1 client.
  Concurrent requests share one engine; fan-out must help, not hurt.
* ``serve_over_oneshot`` -- single-client serve throughput over the
  bare engine's on the same payloads: the whole protocol + asyncio
  bridge tax.  A floor here catches an accidentally serialized event
  loop or a chatty protocol regression.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import threading
import time
from pathlib import Path

from _common import BENCH_SEED, Table, fan_out_label, machine_info, mbps
from repro.benchmark import DEFAULT_THRESHOLD, check_baseline
from repro.core.primacy import PrimacyConfig
from repro.datasets import generate_bytes
from repro.parallel.pool import ParallelCompressor
from repro.serve.client import AsyncServeClient
from repro.serve.daemon import PrimacyServer, ServeConfig
from repro.serve.protocol import RequestConfig

DEFAULT_N_VALUES = 131072  # 1 MiB of float64 per request
DEFAULT_CHUNK_BYTES = 256 * 1024
DEFAULT_REQUESTS = 32
DEFAULT_CLIENTS = (1, 4, 16)

_GATED_SUMMARY_METRICS = ("scaleup_16_over_1", "serve_over_oneshot")


class _Harness:
    """A PrimacyServer on a background event loop (benchmark-local)."""

    def __init__(self, config: ServeConfig) -> None:
        self.server = PrimacyServer(config)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None

    def __enter__(self) -> "_Harness":
        started = threading.Event()

        def _run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            loop.run_until_complete(self.server.start())
            started.set()
            try:
                loop.run_forever()
            finally:
                loop.close()

        self._thread = threading.Thread(target=_run, daemon=True)
        self._thread.start()
        started.wait(timeout=60)
        return self

    def __exit__(self, *exc: object) -> None:
        assert self._loop is not None and self._thread is not None
        asyncio.run_coroutine_threadsafe(
            self.server.stop(), self._loop
        ).result(timeout=60)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=60)


def _drive(
    host: str,
    port: int,
    payloads: list[bytes],
    rc: RequestConfig,
    n_clients: int,
    n_requests: int,
) -> float:
    """Fire ``n_requests`` compresses across ``n_clients``; wall seconds."""

    async def one_client(index: int, count: int) -> None:
        async with await AsyncServeClient.open(host, port) as client:
            for round_no in range(count):
                payload = payloads[(index + round_no) % len(payloads)]
                await client.compress(payload, config=rc)

    async def storm() -> None:
        per_client = n_requests // n_clients
        extra = n_requests % n_clients
        await asyncio.gather(
            *(
                one_client(i, per_client + (1 if i < extra else 0))
                for i in range(n_clients)
            )
        )

    start = time.perf_counter()
    asyncio.run(storm())
    return time.perf_counter() - start


def run_bench(
    n_values: int,
    chunk_bytes: int,
    n_requests: int,
    client_levels: list[int],
    workers: int | None,
    seed: int,
) -> dict:
    base = PrimacyConfig(chunk_bytes=chunk_bytes)
    rc = RequestConfig(chunk_bytes=chunk_bytes)
    payloads = [
        generate_bytes(name, n_values, seed=seed)
        for name in ("obs_temp", "num_plasma")
    ]
    payload_bytes = sum(len(p) for p in payloads) // len(payloads)

    # One-shot reference: the bare engine on the same request stream.
    with ParallelCompressor(base, workers=workers) as pool:
        pool.compress(payloads[0])  # warm the worker pool
        start = time.perf_counter()
        for i in range(n_requests):
            pool.compress(payloads[i % len(payloads)])
        oneshot_seconds = time.perf_counter() - start
    oneshot_mbps = mbps(n_requests * payload_bytes, oneshot_seconds)

    results: dict[str, dict] = {}
    config = ServeConfig(workers=workers, base=base)
    with _Harness(config) as harness:
        host, port = harness.server.address
        # Warm up: pool spawn and first-connection costs stay out of
        # every level's timing.
        _drive(host, port, payloads, rc, 1, 2)
        for n_clients in client_levels:
            seconds = _drive(
                host, port, payloads, rc, n_clients, n_requests
            )
            results[f"clients_{n_clients}"] = {
                "clients": n_clients,
                "n_requests": n_requests,
                "seconds": round(seconds, 6),
                "rps": round(n_requests / seconds, 3),
                "mbps": round(
                    mbps(n_requests * payload_bytes, seconds), 3
                ),
            }

    first = results[f"clients_{client_levels[0]}"]
    last = results[f"clients_{client_levels[-1]}"]
    return {
        "schema": 1,
        "machine": machine_info(),
        "params": {
            "n_values": n_values,
            "chunk_bytes": chunk_bytes,
            "n_requests": n_requests,
            "client_levels": client_levels,
            "payload_bytes": payload_bytes,
            "seed": seed,
        },
        "oneshot": {
            "seconds": round(oneshot_seconds, 6),
            "mbps": round(oneshot_mbps, 3),
        },
        "results": results,
        "summary": {
            "rps_min_clients": first["rps"],
            "rps_max_clients": last["rps"],
            "mbps_max_clients": last["mbps"],
            "scaleup_16_over_1": round(last["rps"] / first["rps"], 4),
            "serve_over_oneshot": round(first["mbps"] / oneshot_mbps, 4),
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-values", type=int, default=DEFAULT_N_VALUES)
    parser.add_argument(
        "--chunk-bytes", type=int, default=DEFAULT_CHUNK_BYTES
    )
    parser.add_argument("--requests", type=int, default=DEFAULT_REQUESTS)
    parser.add_argument(
        "--clients",
        default=",".join(str(c) for c in DEFAULT_CLIENTS),
        help="comma-separated concurrency levels (default: 1,4,16)",
    )
    parser.add_argument("--workers", type=int, default=None)
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

    client_levels = [
        int(c.strip()) for c in args.clients.split(",") if c.strip()
    ]
    document = run_bench(
        n_values=args.n_values,
        chunk_bytes=args.chunk_bytes,
        n_requests=args.requests,
        client_levels=client_levels,
        workers=args.workers,
        seed=args.seed,
    )

    table = Table(
        f"primacy serve throughput, {args.requests} x "
        f"{document['params']['payload_bytes']} B compress requests",
        ["clients", "seconds", "req/s", "MB/s"],
    )
    for row in document["results"].values():
        table.add(row["clients"], row["seconds"], row["rps"], row["mbps"])
    summary = document["summary"]
    table.note(
        f"one-shot engine {document['oneshot']['mbps']:.1f} MB/s on the "
        f"same stream; serve/one-shot {summary['serve_over_oneshot']:.3f}; "
        f"{fan_out_label(client_levels[-1], 'clients')} "
        f"{client_levels[-1]}c/{client_levels[0]}c "
        f"{summary['scaleup_16_over_1']:.3f}"
    )
    table.emit("BENCH_serve.txt")

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
