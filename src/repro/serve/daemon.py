"""The ``primacy serve`` asyncio daemon.

One process, one listener, two dialects on the same port (the first
four bytes decide: an HTTP verb routes to the JSON shim in
:mod:`repro.serve.http`, anything else is treated as the binary
protocol of :mod:`repro.serve.protocol`).  Request payloads are split
into chunk-sized work units and fanned through a single shared
:class:`~repro.parallel.engine.ParallelEngine` behind an
:class:`~repro.serve.bridge.EngineBridge`, so the event loop never
blocks on compression.

Responses are **byte-identical** to the one-shot CLI: ``compress``
frames its records with :func:`repro.core.primacy.frame_container`, as
``PrimacyCompressor.compress`` and ``ParallelCompressor.compress`` do,
``FLAG_AUTO`` reproduces ``primacy compress --auto`` through per-chunk
``KIND_PLAN_COMPRESS`` tasks, and ``decompress`` splits the container
with :func:`repro.core.primacy.split_container`, as
``ParallelCompressor.decompress`` does, including its serial fallback
for index-reuse chains.

Admission control is all up-front and typed: payload cap
(``BAD_REQUEST``), in-flight byte/request ceilings (``BUSY``),
per-tenant token buckets (``QUOTA``), drain state (``DRAINING``).  A
request that passes admission is *acknowledged* and will be answered --
the SIGTERM drain path closes the listener, lets every acknowledged
request finish, seals the final counters into a PRCK checkpoint
(:mod:`repro.checkpoint`), and only then stops the engine.

Backpressure state lives in a :class:`~repro.obs.MetricsRegistry`
(``serve.queue_depth``, ``serve.inflight_bytes``,
``serve.worker_saturation``) that ``stat`` requests and
``primacy stats --remote`` render.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import signal
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.compressors.base import (
    CodecError,
    CorruptionError,
    available_codecs,
)
from repro.core.chunking import Chunker
from repro.core.idmap import IndexReusePolicy
from repro.core.primacy import (
    PrimacyCompressor,
    PrimacyConfig,
    frame_container,
    split_container,
)
from repro.obs.metrics import MetricsRegistry
from repro.parallel.engine import (
    KIND_COMPRESS,
    KIND_DECOMPRESS,
    KIND_PLAN_COMPRESS,
    EngineError,
    ParallelEngine,
)
from repro.serve.bridge import EngineBridge
from repro.serve.protocol import (
    MAX_PAYLOAD_BYTES,
    Op,
    Request,
    RequestConfig,
    Response,
    Status,
    decode_request,
    encode_response,
    request_assembler,
)
from repro.serve.quota import TenantQuotas

__all__ = ["ServeConfig", "PrimacyServer", "serve"]

#: First four bytes of every HTTP method the shim answers.
_HTTP_VERBS = frozenset(
    [b"GET ", b"POST", b"PUT ", b"HEAD", b"DELE", b"OPTI", b"PATC", b"TRAC"]
)

_READ_CHUNK = 256 * 1024


@dataclass
class ServeConfig:
    """Daemon configuration (the ``primacy serve`` flag surface).

    ``base`` supplies every pipeline knob a request's
    :class:`~repro.serve.protocol.RequestConfig` does not carry (word
    width, checksum, ISOBAR thresholds); its index policy must stay
    ``PER_CHUNK`` or chunk fan-out would change the container bytes.
    ``max_inflight_bytes``/``max_inflight_requests`` bound acknowledged
    work (the BUSY threshold); ``quota_bps`` enables per-tenant token
    buckets.  ``drain_checkpoint`` names the PRCK file the drain path
    seals final counters into (empty: skip).
    """

    host: str = "127.0.0.1"
    port: int = 0
    workers: int | None = None
    max_pending: int | None = None
    base: PrimacyConfig = field(default_factory=PrimacyConfig)
    max_payload_bytes: int = MAX_PAYLOAD_BYTES
    max_inflight_bytes: int = 1 << 30
    max_inflight_requests: int = 256
    quota_bps: float = 0.0
    quota_burst_bytes: float | None = None
    drain_timeout: float = 30.0
    drain_checkpoint: str = ""

    def __post_init__(self) -> None:
        if self.base.index_policy is not IndexReusePolicy.PER_CHUNK:
            raise ValueError(
                "serving requires the PER_CHUNK index policy; reuse "
                "chains make chunk fan-out order-dependent"
            )
        if self.max_payload_bytes > MAX_PAYLOAD_BYTES:
            raise ValueError(
                f"max_payload_bytes exceeds the protocol cap "
                f"{MAX_PAYLOAD_BYTES}"
            )


class PrimacyServer:
    """One serving process: listener, engine bridge, admission control.

    Lifecycle: :meth:`start` binds, :meth:`serve_forever` parks until
    :meth:`drain` (graceful; what SIGTERM triggers) or :meth:`stop`
    (immediate; tests and fatal errors) completes.  All coroutine
    methods run on one event loop; the engine lives on the bridge's
    dispatcher thread.
    """

    def __init__(
        self,
        config: ServeConfig | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.config = config or ServeConfig()
        self.metrics = registry if registry is not None else MetricsRegistry()
        engine = ParallelEngine(
            self.config.base,
            workers=self.config.workers,
            max_pending=self.config.max_pending,
        )
        self.bridge = EngineBridge(engine)
        self.quotas = TenantQuotas(
            self.config.quota_bps, self.config.quota_burst_bytes
        )
        self._server: asyncio.AbstractServer | None = None
        self._writers: set[asyncio.StreamWriter] = set()
        self._draining = False
        self._stopped: asyncio.Event | None = None
        self._idle: asyncio.Event | None = None
        self._inflight_bytes = 0
        self._inflight_requests = 0
        self._acknowledged = 0
        self._answered = 0
        self._started_at = time.monotonic()

    # -- lifecycle ------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (valid after :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not listening")
        host, port = self._server.sockets[0].getsockname()[:2]
        return str(host), int(port)

    @property
    def draining(self) -> bool:
        """Whether a graceful drain is in progress (or done)."""
        return self._draining

    async def start(self) -> None:
        """Bind the listener and start the engine dispatcher."""
        self._stopped = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self.bridge.start()
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port
        )

    def install_signal_handlers(self) -> None:
        """Route SIGTERM/SIGINT into a graceful drain."""
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(
                sig, lambda: loop.create_task(self.drain())
            )

    async def serve_forever(self) -> None:
        """Park until a drain or stop completes, then close connections."""
        assert self._stopped is not None
        await self._stopped.wait()
        await self._close_connections()

    async def drain(self) -> None:
        """Graceful shutdown: stop admitting, finish acknowledged work.

        Closes the listener, answers ``DRAINING`` on frames already in
        flight on open connections, waits (bounded by
        ``drain_timeout``) for every acknowledged request to be
        answered, seals the final counters into the drain checkpoint,
        and shuts the engine down.  Idempotent.
        """
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        assert self._idle is not None
        try:
            await asyncio.wait_for(
                self._idle.wait(), timeout=self.config.drain_timeout
            )
        except asyncio.TimeoutError:  # pragma: no cover - stuck request
            self.metrics.counter("serve.drain_timeouts").inc()
        await asyncio.to_thread(self._write_drain_checkpoint)
        await asyncio.to_thread(self.bridge.close)
        assert self._stopped is not None
        self._stopped.set()

    async def stop(self) -> None:
        """Immediate shutdown (tests, fatal errors): no drain wait."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self._close_connections()
        await asyncio.to_thread(self.bridge.close)
        if self._stopped is not None:
            self._stopped.set()

    async def _close_connections(self) -> None:
        writers, self._writers = self._writers, set()
        for writer in writers:
            writer.close()
        for writer in writers:
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    def _write_drain_checkpoint(self) -> None:
        path = self.config.drain_checkpoint
        if not path:
            return
        from repro.checkpoint import CheckpointWriter

        writer = CheckpointWriter(path, self.config.base)
        try:
            counters = {
                "requests_acknowledged": self._acknowledged,
                "requests_answered": self._answered,
                "requests_in_flight": self._inflight_requests,
                "inflight_bytes": self._inflight_bytes,
                "bytes_in": int(
                    self.metrics.counter("serve.bytes_in").value
                ),
                "bytes_out": int(
                    self.metrics.counter("serve.bytes_out").value
                ),
            }
            writer.write_step(
                0,
                {
                    name: np.array([value], dtype=np.uint64)
                    for name, value in counters.items()
                },
            )
        finally:
            writer.close()

    # -- connection handling -------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        self.metrics.counter("serve.connections").inc()
        try:
            try:
                head = await reader.readexactly(4)
            except asyncio.IncompleteReadError:
                return  # fewer than 4 bytes then EOF: nothing to answer
            if head in _HTTP_VERBS:
                from repro.serve.http import handle_http

                await handle_http(self, head, reader, writer)
            else:
                await self._binary_session(head, reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; in-flight work completes regardless
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _binary_session(
        self,
        head: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        assembler = request_assembler(self.config.max_payload_bytes)
        data = head
        while True:
            try:
                frames = assembler.feed(data)
            except CorruptionError as exc:
                # Framing damage is not recoverable mid-stream: answer
                # typed and hang up, never hang.
                await self._send(
                    writer,
                    Response(Status.BAD_REQUEST, 0, detail=str(exc)),
                )
                return
            for body in frames:
                try:
                    request = decode_request(bytes(body))
                except CorruptionError as exc:
                    response = Response(
                        Status.BAD_REQUEST, 0, detail=str(exc)
                    )
                else:
                    response = await self.handle_request(request)
                await self._send(writer, response)
            data = await reader.read(_READ_CHUNK)
            if not data:
                return

    @staticmethod
    async def _send(
        writer: asyncio.StreamWriter, response: Response
    ) -> None:
        writer.write(encode_response(response))
        await writer.drain()

    # -- request handling ----------------------------------------------

    async def handle_request(self, request: Request) -> Response:
        """Admit, execute, and answer one decoded request."""
        rid = request.request_id
        self.metrics.counter(
            "serve.requests", op=request.op.name.lower()
        ).inc()
        if request.op is Op.HEALTH:
            return Response(
                Status.OK,
                rid,
                payload=json.dumps(self._health_doc()).encode("utf-8"),
            )
        if request.op is Op.STAT:
            return Response(
                Status.OK,
                rid,
                payload=json.dumps(self._stat_doc()).encode("utf-8"),
            )
        refusal = self._admit(request)
        if refusal is not None:
            self.metrics.counter(
                "serve.refused", status=refusal.status.name.lower()
            ).inc()
            return refusal
        # Acknowledged: from here the request is always answered, and
        # the drain path waits for it.
        n_bytes = len(request.payload)
        self._acknowledged += 1
        self._inflight_requests += 1
        self._inflight_bytes += n_bytes
        assert self._idle is not None
        self._idle.clear()
        self.metrics.counter("serve.bytes_in").inc(n_bytes)
        self._update_gauges()
        try:
            if request.op is Op.COMPRESS:
                payload = await self._compress(request)
            else:
                payload = await self._decompress(request)
            self.metrics.counter("serve.bytes_out").inc(len(payload))
            return Response(Status.OK, rid, payload=payload)
        except CodecError as exc:
            return Response(Status.CORRUPT, rid, detail=str(exc))
        except EngineError as exc:
            self.metrics.counter("serve.engine_errors").inc()
            return Response(Status.INTERNAL, rid, detail=str(exc))
        except (ValueError, KeyError) as exc:
            return Response(Status.BAD_REQUEST, rid, detail=str(exc))
        finally:
            self._answered += 1
            self._inflight_requests -= 1
            self._inflight_bytes -= n_bytes
            if self._inflight_requests == 0:
                self._idle.set()
            self._update_gauges()

    def _admit(self, request: Request) -> Response | None:
        """The admission gate; ``None`` acknowledges the request."""
        rid = request.request_id
        if self._draining:
            return Response(
                Status.DRAINING, rid, detail="server is shutting down"
            )
        if request.op not in (Op.COMPRESS, Op.DECOMPRESS):
            return Response(
                Status.BAD_REQUEST, rid, detail=f"unhandled op {request.op}"
            )
        n_bytes = len(request.payload)
        if n_bytes > self.config.max_payload_bytes:
            return Response(
                Status.BAD_REQUEST,
                rid,
                detail=(
                    f"payload of {n_bytes} bytes exceeds this server's "
                    f"{self.config.max_payload_bytes}-byte cap"
                ),
            )
        if request.config is not None and (
            request.config.codec not in available_codecs()
        ):
            return Response(
                Status.BAD_REQUEST,
                rid,
                detail=f"unknown codec {request.config.codec!r}",
            )
        if (
            self._inflight_requests >= self.config.max_inflight_requests
            or self._inflight_bytes + n_bytes
            > self.config.max_inflight_bytes
        ):
            return Response(
                Status.BUSY,
                rid,
                detail=(
                    f"{self._inflight_requests} requests / "
                    f"{self._inflight_bytes} bytes already in flight"
                ),
            )
        if not self.quotas.admit(request.tenant, n_bytes):
            return Response(
                Status.QUOTA,
                rid,
                detail=f"tenant {request.tenant!r} is over its byte quota",
            )
        return None

    # -- the work itself -----------------------------------------------

    def _base_config(self, rc: RequestConfig) -> PrimacyConfig:
        """Materialize a request's knobs over the server's base config."""
        return dataclasses.replace(
            self.config.base,
            codec=rc.codec,
            chunk_bytes=rc.chunk_bytes,
            high_bytes=rc.high_bytes,
            linearization=rc.linearization,
        )

    async def _compress(self, request: Request) -> bytes:
        rc = request.config or RequestConfig()
        base = self._base_config(rc)
        task_config: object = base
        kind = KIND_COMPRESS
        if request.auto:
            from repro.planner.candidates import PlannerConfig

            task_config = PlannerConfig(
                base=base, network_mbps=rc.theta_milli / 1000.0
            )
            kind = KIND_PLAN_COMPRESS
        payload = request.payload
        chunks, tail = Chunker(base.chunk_bytes, base.word_bytes).split(
            payload
        )
        futures = [
            self.bridge.submit(kind, chunk.data, task_config)
            for chunk in chunks
        ]
        results = await asyncio.gather(*futures)
        self.metrics.counter("serve.chunks", kind=kind).inc(len(chunks))
        # Each result is (record, stats[, decision]).
        return frame_container(
            base, len(payload), tail, [result[0] for result in results]
        )

    async def _decompress(self, request: Request) -> bytes:
        data = request.payload
        header, records, independent = split_container(data)
        container_config = header.to_config(self.config.base)
        if len(records) <= 1 or not independent:
            # Index-reuse chains are order-dependent; the serial decoder
            # is the only correct path (run off-loop, it is CPU work).
            return await asyncio.to_thread(
                PrimacyCompressor(container_config).decompress, data
            )
        futures = [
            self.bridge.submit(KIND_DECOMPRESS, record, container_config)
            for record in records
        ]
        result = header.join(await asyncio.gather(*futures))
        self.metrics.counter("serve.chunks", kind=KIND_DECOMPRESS).inc(
            len(records)
        )
        return result

    # -- introspection --------------------------------------------------

    def _update_gauges(self) -> None:
        self.metrics.gauge("serve.queue_depth").set(
            float(self.bridge.pending)
        )
        self.metrics.gauge("serve.inflight_bytes").set(
            float(self._inflight_bytes)
        )
        self.metrics.gauge("serve.inflight_requests").set(
            float(self._inflight_requests)
        )
        self.metrics.gauge("serve.worker_saturation").set(
            self.bridge.engine.stats.busy_fraction()
        )

    def _health_doc(self) -> dict:
        return {
            "status": "draining" if self._draining else "ok",
            "pid": os.getpid(),
            "workers": self.bridge.engine.workers,
            "uptime_seconds": round(
                time.monotonic() - self._started_at, 3
            ),
        }

    def _stat_doc(self) -> dict:
        engine = self.bridge.engine
        return {
            "server": {
                "draining": self._draining,
                "acknowledged": self._acknowledged,
                "answered": self._answered,
                "inflight_requests": self._inflight_requests,
                "inflight_bytes": self._inflight_bytes,
                "queue_depth": self.bridge.pending,
                "bytes_in": int(
                    self.metrics.counter("serve.bytes_in").value
                ),
                "bytes_out": int(
                    self.metrics.counter("serve.bytes_out").value
                ),
                "uptime_seconds": round(
                    time.monotonic() - self._started_at, 3
                ),
            },
            "engine": engine.stats.summary(),
            "storage": _storage_doc(),
        }


def _storage_doc() -> dict:
    """Summarize the process-global storage/catalog counters.

    The storage layer (PRIF readers/writers, sharded-archive catalog)
    instruments the *global* obs registry, not the server's own, so a
    daemon that also packs or serves range reads exposes that activity
    here.  Counters are summed across label sets (e.g. per-shard write
    bytes) to keep the stat document bounded.
    """
    from repro.obs.metrics import registry as _global_registry

    totals: dict[str, float] = {}
    snap = _global_registry().snapshot()
    for name, _labels, value in snap["counters"]:
        if name.startswith(("storage.", "catalog.")):
            totals[name] = totals.get(name, 0.0) + value
    return {
        name: int(value) if float(value).is_integer() else round(value, 6)
        for name, value in sorted(totals.items())
    }


def serve(
    config: ServeConfig | None = None,
    announce: "Callable[[tuple[str, int]], None] | None" = None,
) -> None:
    """Run a server until SIGTERM/SIGINT drains it (the CLI entry).

    Binding errors propagate *before* ``announce`` is called, so
    callers can map them to a distinct exit code.
    """

    async def _main() -> None:
        server = PrimacyServer(config)
        await server.start()
        server.install_signal_handlers()
        if announce is not None:
            announce(server.address)
        await server.serve_forever()

    asyncio.run(_main())
