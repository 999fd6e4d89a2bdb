"""In-process serve harness.

Runs a :class:`~repro.serve.daemon.PrimacyServer` on a dedicated event
loop in a background thread, so blocking test code (and blocking
:class:`~repro.serve.client.ServeClient` instances) can talk to a real
listening socket without subprocesses.  ``run`` submits a coroutine to
the server's loop and blocks for its result -- the escape hatch tests
use to poke server internals (``drain``, gauges) from the test thread.

``reference_compress`` produces the one-shot container the daemon's
response must be byte-identical to, via the same engine-driven code
path the CLI uses (``workers=1`` keeps it inline and deterministic).
"""

from __future__ import annotations

import asyncio
import threading
from collections.abc import Coroutine
from typing import Any

from repro.core.primacy import PrimacyConfig
from repro.parallel.pool import ParallelCompressor
from repro.serve.client import ServeClient
from repro.serve.daemon import PrimacyServer, ServeConfig

__all__ = ["ServerHarness", "reference_compress"]


class ServerHarness:
    """A live server on a background loop (context manager)."""

    def __init__(self, config: ServeConfig | None = None) -> None:
        self.config = config or ServeConfig()
        self.server: PrimacyServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._startup_error: BaseException | None = None

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "ServerHarness":
        started = threading.Event()

        def _run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            try:
                self.server = PrimacyServer(self.config)
                loop.run_until_complete(self.server.start())
            except BaseException as exc:  # pragma: no cover - bad config
                self._startup_error = exc
                started.set()
                return
            started.set()
            try:
                loop.run_forever()
            finally:
                loop.close()

        self._thread = threading.Thread(
            target=_run, name="serve-harness", daemon=True
        )
        self._thread.start()
        if not started.wait(timeout=30):  # pragma: no cover - hung start
            raise RuntimeError("server failed to start within 30s")
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def stop(self) -> None:
        """Stop the server and tear the loop down (idempotent)."""
        loop, self._loop = self._loop, None
        if loop is None:
            return
        try:
            if self.server is not None:
                asyncio.run_coroutine_threadsafe(
                    self.server.stop(), loop
                ).result(timeout=30)
        finally:
            loop.call_soon_threadsafe(loop.stop)
            assert self._thread is not None
            self._thread.join(timeout=30)

    def __enter__(self) -> "ServerHarness":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # -- helpers --------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        assert self.server is not None
        return self.server.address

    def run(self, coro: Coroutine[Any, Any, Any], timeout: float = 60.0):
        """Run ``coro`` on the server's loop; block for its result."""
        assert self._loop is not None, "harness is not running"
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result(
            timeout
        )

    def client(self, timeout: float = 60.0) -> ServeClient:
        """A fresh blocking client connected to this server."""
        host, port = self.address
        return ServeClient(host, port, timeout=timeout)


def reference_compress(
    payload: bytes,
    base: PrimacyConfig,
    auto: bool = False,
    theta_milli: int = 4000,
) -> bytes:
    """The container the one-shot CLI path would produce for ``payload``."""
    planner = None
    if auto:
        from repro.planner.candidates import PlannerConfig

        planner = PlannerConfig(base=base, network_mbps=theta_milli / 1000.0)
    with ParallelCompressor(
        None if auto else base, workers=1, planner=planner
    ) as pool:
        return pool.compress(payload)[0]
