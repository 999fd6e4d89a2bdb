"""The benchmark's workloads, driven through the library's public API.

Every workload is a closed loop run from this one process: the next
operation on a stream starts only when the previous one has returned.
There are no extra threads; ``serve`` drives its two connections from one
asyncio loop.  A workload object owns

* a set-up (:meth:`setup`), which the runner repeats to report a median
  set-up time, undoing each one with :meth:`teardown`;
* one measured pass per :meth:`measure` call, returned as a :class:`Pass`;
* a :meth:`teardown` that leaves no process, shared-memory segment or
  scratch file behind, and returns the correctness problems it found on
  the way out (the daemon's exit code and final counters).

Outputs are checked outside the timed operations.  Typed errors, non-OK
serve replies and mismatches count as failed operations; nothing is
retried or skipped.  With ``traced=True`` a pass also fills
:attr:`Pass.layers` from the spans below and the counters the layers
already expose (``PrimacyStats``, planner ``Decision``\\ s, the engine's
``stats.summary()``, the daemon's ``stat()`` and the ``repro.obs``
registry).
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import select
import shutil
import signal
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro
from repro import obs
from repro.compressors.base import CodecError
from repro.core.primacy import PrimacyCompressor, PrimacyConfig
from repro.datasets import generate_bytes
from repro.parallel.engine import KIND_PLAN_COMPRESS, EngineError, ParallelEngine
from repro.planner.candidates import DEFAULT_CANDIDATES, PlannerConfig
from repro.serve import AsyncServeClient, RequestConfig, ServeError, Status
from repro.storage.catalog import (
    ShardedArchiveReader,
    ShardedArchiveWriter,
    read_catalog,
)

#: One variable per compressibility regime, from ``msg_sppm`` (easy) to
#: ``num_plasma`` (hard); every timestep holds all six.
VARIABLES = (
    "obs_temp",
    "msg_sppm",
    "num_plasma",
    "gts_phi_l",
    "flash_velx",
    "msg_bt",
)
KIB = 1024
MIB = 1024 * KIB
#: float64 values per variable: 1 MiB, one static-pipeline chunk.
VALUES = MIB // 8
#: Engine workers and client connections: the runner has two cores.
WORKERS = 2
CLIENTS = 2
#: Values each variable contributes to one 64 KiB serve payload.
RECORD_VALUES = (1366, 1366, 1365, 1365, 1365, 1365)
#: Codecs the planner can pick, in the order of its default candidates.
PLANNER_CODECS = tuple(dict.fromkeys(c.codec for c in DEFAULT_CANDIDATES))

#: Per-layer metric -> (unit, end-to-end metric it should move).  Times
#: and sizes are per operation of the workload: a checkpoint (with its
#: read-back) for ingest-auto, a request for serve.  A layer a workload does
#: not exercise reports 0.
PER_LAYER = {
    "compressors.solver_s": ("s/op", "write_mbps"),
    "compressors.solver_mbps": ("MB/s", "write_mbps"),
    "core.precondition_s": ("s/op", "write_mbps"),
    "core.index_bytes": ("B/op", "compression_ratio"),
    "isobar.compressible_frac": ("frac", "compression_ratio, write_mbps"),
    "planner.probe_s": ("s/op", "write_mbps"),
    **{
        f"planner.chunks.{codec}": ("count/op", "compression_ratio, write_mbps")
        for codec in PLANNER_CODECS
    },
    "parallel.tasks": ("count/op", "write_mbps"),
    "parallel.shm_bytes": ("B/op", "write_mbps"),
    "parallel.worker_s": ("s/op", "write_mbps"),
    "parallel.busy_frac": ("frac", "write_mbps"),
    "parallel.submit_s": ("s/op", "write_mbps"),
    "parallel.queue_wait_s": ("s/op", "write_mbps"),
    "parallel.drain_s": ("s/op", "write_mbps"),
    "storage.write_s": ("s/op", "write_mbps"),
    "storage.close_s": ("s/op", "write_mbps"),
    "storage.self_s": ("s/op", "write_mbps"),
    "storage.bytes_written": ("B/op", "compression_ratio"),
    "unattributed.worker_s": ("s/op", "write_mbps"),
    "storage.read_s": ("s/op", "read_p50_ms, read_mbps"),
    "storage.io_s": ("s/op", "read_p50_ms"),
    "core.decode_s": ("s/op", "read_p50_ms"),
    "compressors.decode_s": ("s/op", "read_p50_ms, read_p90_ms"),
    "storage.bytes_touched_per_read": ("B/op", "read_mbps, read_p90_ms"),
    "storage.handle_hit_frac": ("frac", "read_mbps, read_p90_ms"),
    "serve.engine_ms_per_req": ("ms", "write_p50_ms, read_p50_ms"),
    "serve.self_ms_per_req": ("ms", "read_p50_ms, read_p90_ms"),
    "serve.acknowledged": ("count", "success_rate"),
    "serve.answered": ("count", "success_rate"),
    "unattributed.s": ("s/op", "(share of the pass)"),
    "unattributed.frac": ("frac", "(share of the pass)"),
}

#: Exceptions an operation may raise that count as a failed operation.
#: Anything else is a defect that aborts the run.
OP_ERRORS = (CodecError, EngineError, ServeError, OSError)
#: Serve statuses that refuse a request before it is acknowledged.
REFUSALS = (Status.BAD_REQUEST, Status.BUSY, Status.QUOTA, Status.DRAINING)

#: ``src`` directory of the imported library; the daemon runs from it.
SRC = Path(repro.__file__).resolve().parent.parent


def timestep(seed: int, step: int) -> list[bytes]:
    """The six variables of one timestep; every timestep has its own seed."""
    step_seed = int(np.random.SeedSequence([seed, step]).generate_state(1)[0])
    return [generate_bytes(name, VALUES, seed=step_seed) for name in VARIABLES]



def records(variables: list[bytes]) -> list[bytes]:
    """Cut a timestep into 64 KiB payloads that each hold a slice of
    every variable."""
    widths = [n * 8 for n in RECORD_VALUES]
    count = min(len(var) // width for var, width in zip(variables, widths))
    return [
        b"".join(var[j * width : (j + 1) * width] for var, width in zip(variables, widths))
        for j in range(count)
    ]


def dir_bytes(directory: Path) -> int:
    """Bytes stored in an archive directory (shards plus catalog)."""
    return sum(entry.stat().st_size for entry in os.scandir(directory))


def obs_totals() -> dict[str, float]:
    """``repro.obs`` counters and histogram totals, summed over labels."""
    snap = obs.registry().snapshot()
    totals: Counter = Counter()
    for name, _labels, value in snap["counters"]:
        totals[name] += value
    for name, _labels, _bounds, _counts, total, _samples in snap["histograms"]:
        totals[name] += total
    return totals



def replay(directory: Path, spans: "Spans", trace: int) -> tuple[float, float, float]:
    """Time the parts of the read path again on every chunk of an archive.

    Returns the catalog read + seek + record read time, the
    ``PrimacyCompressor.decompress_chunk`` time, and the codec share of
    the latter (from the ``codec.decompress.seconds`` histogram, so
    ``repro.obs`` must be on).
    """
    sid = spans.start("replay.io", trace)
    manifest = read_catalog(directory)
    compressor = PrimacyCompressor(manifest.config)
    handles = [open(directory / shard.name, "rb") for shard in manifest.shards]
    io_s = spans.end(sid)
    decode_s = 0.0
    codec0 = obs_totals()["codec.decompress.seconds"]
    try:
        for entry in manifest.entries:
            sid = spans.start("replay.io", trace)
            fh = handles[entry.shard]
            fh.seek(entry.offset)
            record = fh.read(entry.length)
            io_s += spans.end(sid)
            sid = spans.start("replay.decode", trace)
            compressor.decompress_chunk(record)
            decode_s += spans.end(sid)
    finally:
        for fh in handles:
            fh.close()
    return io_s, decode_s, obs_totals()["codec.decompress.seconds"] - codec0


class Spans:
    """Spans recorded by the benchmark around each public call.

    A row is ``[name, trace, parent, start, end, error]``; ``trace`` groups
    the spans of one operation (a checkpoint, a serve request) and
    ``parent`` is the row index of the enclosing span (-1 at top level).
    Rows stay in memory and are written out when a traced run ends.
    """

    def __init__(self) -> None:
        self.rows: list[list] = []

    def start(self, name: str, trace: int, parent: int = -1) -> int:
        """Open a span; returns its id for :meth:`end`."""
        self.rows.append([name, trace, parent, time.perf_counter(), 0.0, ""])
        return len(self.rows) - 1

    def end(self, sid: int, error: BaseException | None = None) -> float:
        """Close span ``sid``; returns its duration in seconds."""
        row = self.rows[sid]
        row[4] = time.perf_counter()
        if error is not None:
            row[5] = type(error).__name__
        return row[4] - row[3]

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(r[4] - r[3] for r in self.rows if r[0] == name)

    def top_level(self) -> float:
        """Summed duration of the spans that have no parent."""
        return sum(r[4] - r[3] for r in self.rows if r[2] < 0)

    def write(self, fh, label: str) -> None:
        """Append the spans as JSON lines tagged with ``label``."""
        for sid, (name, trace, parent, t0, t1, error) in enumerate(self.rows):
            row = {
                "pass": label,
                "id": sid,
                "parent": parent if parent >= 0 else None,
                "trace": trace,
                "name": name,
                "start": t0,
                "end": t1,
                "error": error or None,
            }
            fh.write(json.dumps(row) + "\n")


@dataclass
class Pass:
    """What one measured pass observed (times in seconds, sizes in bytes).

    ``write_time``/``read_time`` are the denominators of the MB/s
    figures: the summed time of the write or read operations, failed ones
    included.  No workload has two operations of one kind in flight at
    once, so these are single-stream rates.
    """

    spans: Spans = field(default_factory=Spans)
    write_lat: list[float] = field(default_factory=list)
    write_bytes: int = 0
    write_time: float = 0.0
    read_lat: list[float] = field(default_factory=list)
    read_bytes: int = 0
    read_time: float = 0.0
    input_bytes: int = 0
    stored_bytes: int = 0
    attempted: int = 0
    errors: Counter = field(default_factory=Counter)
    problems: list[str] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)
    wall: float = 0.0

    @property
    def failed(self) -> int:
        """Operations that raised, were refused, or returned wrong bytes."""
        return sum(self.errors.values())

    def ok_write(self, n_bytes: int, seconds: float) -> None:
        """Count one successful write-side operation."""
        self.attempted += 1
        self.write_lat.append(seconds)
        self.write_bytes += n_bytes

    def ok_read(self, n_bytes: int, seconds: float) -> None:
        """Count one successful read-side operation."""
        self.attempted += 1
        self.read_lat.append(seconds)
        self.read_bytes += n_bytes

    def fail(self, exc: BaseException) -> None:
        """Count one operation that raised a typed error."""
        self.attempted += 1
        self.errors[type(exc).__name__] += 1

    def mismatch(self, what: str) -> None:
        """Count one operation whose output differs from its input."""
        self.attempted += 1
        self.errors["Mismatch"] += 1
        self.problem(what)

    def problem(self, what: str) -> None:
        """Record a correctness violation (the first few are kept)."""
        if len(self.problems) < 10:
            self.problems.append(what)

    def unattributed(self, n: int) -> dict[str, float]:
        """Wall time no top-level span covers, per operation and as a share."""
        seconds = self.wall - self.spans.top_level()
        return {"unattributed.s": seconds / n, "unattributed.frac": seconds / self.wall}


# --------------------------------------------------------------------- #
# ingest-auto                                                            #
# --------------------------------------------------------------------- #


class Ingest:
    """Each timestep is one checkpoint, packed into a fresh 2-shard archive.

    The planner picks each chunk's codec over the static pipeline
    (pyzlib, 2-byte split, column order, 1 MiB chunks).  A write
    operation runs from the first ``write()`` to the sealed catalog.  A
    read operation opens the sealed archive and reads it back whole; it
    is then compared to its input and removed.  A traced pass also
    replays each read-back's parts (catalog read, seek and record read,
    ``decompress_chunk``) on the same chunks to split its time.
    """

    SHARDS = 2

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch
        self.config = PrimacyConfig(codec="pyzlib", chunk_bytes=MIB, high_bytes=2)
        self.planner = PlannerConfig(base=self.config)
        self.engine: ParallelEngine | None = None
        self.first: list[bytes] = []
        self.env = {
            "workers": WORKERS,
            "shards": self.SHARDS,
            "clients": 1,
            "chunk_bytes": self.config.chunk_bytes,
            "values_per_variable": VALUES,
            "variables": list(VARIABLES),
            "pipeline": "planner over pyzlib/hb2/col",
        }

    def setup(self) -> None:
        """Spawn and warm the engine; generate the first timestep."""
        self.first = timestep(self.seed, 0)
        self.engine = ParallelEngine(self.config, workers=WORKERS)
        # One small task per worker, so the pool and its compressors exist.
        warm_up = [var[: 64 * KIB] for var in self.first[:WORKERS]]
        for _ in self.engine.map_ordered(KIND_PLAN_COMPRESS, warm_up, self.planner):
            pass

    def teardown(self) -> list[str]:
        """Stop the engine's workers and release its segments."""
        if self.engine is not None:
            self.engine.close()
            self.engine = None
        return []

    def pids(self) -> list[int]:
        """Worker processes this workload started."""
        return self.engine.worker_pids() if self.engine is not None else []

    def measure(self, seconds: float, traced: bool) -> Pass:
        """Checkpoint until the write operations add up to ``seconds``."""
        assert self.engine is not None
        p = Pass()
        spans = p.spans
        engine0 = self.engine.stats.summary()
        obs0 = obs_totals()
        chunk_stats: list = []
        decisions: list = []
        replayed = [0.0, 0.0, 0.0]  # io, decompress_chunk, codec share
        step = 0
        t_start = time.perf_counter()
        # The wall-clock cap ends a pass whose operations fail at once.
        give_up = t_start + 4 * seconds
        while p.write_time < seconds and time.perf_counter() < give_up:
            sid = spans.start("input.generate", step)
            inputs = self.first if step == 0 else timestep(self.seed, step)
            spans.end(sid)
            directory = self.scratch / f"checkpoint-{step:05d}"
            writer = self._checkpoint(p, step, inputs, directory)
            if writer is not None:
                chunk_stats.extend(writer.stats.chunks)
                decisions.extend(writer.decisions)
                read_ok = self._read_back(p, step, b"".join(inputs), directory)
                if traced and read_ok:
                    for i, seconds_taken in enumerate(replay(directory, spans, step)):
                        replayed[i] += seconds_taken
            sid = spans.start("scratch.remove", step)
            shutil.rmtree(directory, ignore_errors=True)
            spans.end(sid)
            step += 1
        p.wall = time.perf_counter() - t_start
        if traced:
            engine1, obs1 = self.engine.stats.summary(), obs_totals()
            p.layers = self._layers(
                p,
                chunk_stats,
                decisions,
                {key: engine1[key] - engine0[key] for key in engine0},
                {key: obs1[key] - obs0[key] for key in obs1},
                replayed,
            )
        return p

    def _checkpoint(
        self, p: Pass, step: int, inputs: list[bytes], directory: Path
    ) -> ShardedArchiveWriter | None:
        """Pack one checkpoint; returns the sealed writer, None on failure."""
        spans = p.spans
        sid = spans.start("storage.open", step)
        writer = ShardedArchiveWriter(
            directory,
            shards=self.SHARDS,
            engine=self.engine,
            planner=self.planner,
        )
        spans.end(sid)
        root = spans.start("checkpoint", step)
        try:
            for var in inputs:
                sid = spans.start("storage.write", step, root)
                writer.write(var)
                spans.end(sid)
            sid = spans.start("storage.close", step, root)
            writer.close()
            spans.end(sid)
        except OP_ERRORS as exc:
            spans.end(sid, exc)
            p.write_time += spans.end(root, exc)
            p.fail(exc)
            writer.abort()
            if isinstance(exc, EngineError):
                assert self.engine is not None
                self.engine.recover()
            return None
        seconds = spans.end(root)
        p.write_time += seconds
        n_in = sum(len(var) for var in inputs)
        p.ok_write(n_in, seconds)
        p.input_bytes += n_in
        p.stored_bytes += dir_bytes(directory)
        return writer

    def _read_back(self, p: Pass, step: int, expected: bytes, directory: Path) -> bool:
        """Read a sealed archive back whole (one read operation) and
        compare it to its input; returns whether it matched."""
        root = p.spans.start("readback", step)
        try:
            with ShardedArchiveReader(directory) as reader:
                restored = reader.read_all()
        except OP_ERRORS as exc:
            p.read_time += p.spans.end(root, exc)
            p.fail(exc)
            return False
        seconds = p.spans.end(root)
        p.read_time += seconds
        if restored != expected:
            p.mismatch(f"checkpoint {step}: read-back differs from its input")
            return False
        p.ok_read(len(restored), seconds)
        return True

    def _layers(
        self,
        p: Pass,
        chunk_stats: list,
        decisions: list,
        engine: dict,
        counters: dict,
        replayed: list[float],
    ) -> dict[str, float]:
        n = max(len(p.write_lat), 1)
        io_s, decode_s, replay_codec_s = replayed
        hits = counters.get("catalog.handles.hit", 0.0)
        misses = counters.get("catalog.handles.miss", 0.0)
        chunks_read = counters.get("catalog.read.chunks", 0.0)
        solver = sum(c.codec_seconds for c in chunk_stats)
        solver_in = sum(c.high_in + c.low_compressible_in for c in chunk_stats)
        prec = sum(c.prec_seconds for c in chunk_stats)
        low_in = sum(c.low_in for c in chunk_stats)
        probe = sum(d.probe_seconds for d in decisions)
        winners = Counter(d.candidate.codec for d in decisions)
        write_s = p.spans.total("storage.write")
        close_s = p.spans.total("storage.close")
        layers = {
            "compressors.solver_s": solver / n,
            "compressors.solver_mbps": solver_in / 1e6 / solver if solver else 0.0,
            "core.precondition_s": prec / n,
            "core.index_bytes": sum(c.index_bytes for c in chunk_stats) / n,
            "isobar.compressible_frac": (
                sum(c.low_compressible_in for c in chunk_stats) / low_in
                if low_in
                else 0.0
            ),
            "planner.probe_s": probe / n,
            "parallel.tasks": engine["tasks"] / n,
            "parallel.shm_bytes": engine["shm_bytes"] / n,
            "parallel.worker_s": engine["worker_seconds"] / n,
            "parallel.busy_frac": engine["worker_seconds"] / (p.write_time * WORKERS),
            "parallel.submit_s": engine["submit_seconds"] / n,
            "parallel.queue_wait_s": engine["queue_wait_seconds"] / n,
            "parallel.drain_s": engine["drain_seconds"] / n,
            "storage.write_s": write_s / n,
            "storage.close_s": close_s / n,
            "storage.self_s": (
                write_s + close_s - engine["drain_seconds"] - engine["submit_seconds"]
            )
            / n,
            "storage.bytes_written": p.stored_bytes / n,
            "unattributed.worker_s": (engine["worker_seconds"] - prec - solver - probe) / n,
            "storage.read_s": p.spans.total("readback") / n,
            "storage.io_s": io_s / n,
            "core.decode_s": (decode_s - replay_codec_s) / n,
            "compressors.decode_s": (
                counters.get("codec.decompress.seconds", 0.0) - replay_codec_s
            )
            / n,
            "storage.bytes_touched_per_read": (
                counters.get("catalog.read.bytes_touched", 0.0) / chunks_read
                if chunks_read
                else 0.0
            ),
            "storage.handle_hit_frac": hits / (hits + misses) if hits + misses else 0.0,
            **p.unattributed(n),
        }
        for codec in PLANNER_CODECS:
            layers[f"planner.chunks.{codec}"] = winners[codec] / n
        return layers


# --------------------------------------------------------------------- #
# serve                                                                  #
# --------------------------------------------------------------------- #


def read_announce(proc: subprocess.Popen, timeout: float) -> tuple[str, int]:
    """Parse ``primacy serve listening on HOST:PORT`` from the daemon."""
    assert proc.stdout is not None
    fd = proc.stdout.fileno()
    deadline = time.monotonic() + timeout
    buf = b""
    while b"\n" not in buf:
        left = deadline - time.monotonic()
        if left <= 0 or not select.select([fd], [], [], left)[0]:
            raise RuntimeError(f"serve daemon did not announce within {timeout}s")
        data = os.read(fd, 4096)
        if not data:
            raise RuntimeError(
                f"serve daemon exited with {proc.wait()} before announcing"
            )
        buf += data
    line = buf.split(b"\n", 1)[0].decode("utf-8", "replace").strip()
    host, _, port = line.rpartition(" ")[2].rpartition(":")
    if not port.isdigit():
        raise RuntimeError(f"unexpected serve announce line {line!r}")
    return host, int(port)


class Daemon:
    """One ``primacy serve`` process, and this run's event loop and
    connections to it.

    ``sent`` and ``refused`` count the compress/decompress requests this
    run made, so :meth:`stop` can check the daemon's final counters.
    """

    def __init__(self, traced: bool) -> None:
        self.loop = asyncio.new_event_loop()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
        )
        env.pop("REPRO_OBS", None)
        if traced:
            env["REPRO_OBS"] = "1"
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", "0", "--workers", str(WORKERS),
            ],
            stdout=subprocess.PIPE,
            env=env,
            cwd=SRC.parent,
        )
        self.clients: list[AsyncServeClient] = []
        self.sent = 0
        self.refused = 0
        try:
            host, port = read_announce(self.proc, timeout=60.0)
            self.clients = self.run(
                *(AsyncServeClient.open(host, port) for _ in range(CLIENTS))
            )
        except BaseException:
            self.stop()
            raise

    def run(self, *coros) -> list:
        """Run coroutines concurrently on this daemon's event loop."""

        async def gather() -> list:
            return list(await asyncio.gather(*coros))

        return self.loop.run_until_complete(gather())

    def stat(self) -> dict:
        """The daemon's stat document."""
        return self.run(self.clients[0].stat())[0]

    def note_failure(self, exc: BaseException) -> None:
        """Track refusals, which the daemon does not acknowledge."""
        if isinstance(exc, ServeError) and exc.status in REFUSALS:
            self.refused += 1

    def stop(self) -> list[str]:
        """Check the final counters, SIGTERM the daemon, check its exit."""
        problems = []
        try:
            if self.clients:
                server = self.stat()["server"]
                if server["acknowledged"] != server["answered"]:
                    problems.append(
                        f"daemon acknowledged {server['acknowledged']} requests "
                        f"but answered {server['answered']}"
                    )
                if server["acknowledged"] != self.sent - self.refused:
                    problems.append(
                        f"daemon acknowledged {server['acknowledged']} requests; "
                        f"{self.sent - self.refused} were sent and not refused"
                    )
        except OP_ERRORS as exc:
            problems.append(f"final stat failed: {exc!r}")
        finally:
            self.run(*(client.close() for client in self.clients))
            self.clients = []
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
            try:
                code = self.proc.wait(timeout=60.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                code = self.proc.wait()
                problems.append("daemon did not exit within 60 s of SIGTERM")
            if code != 0:
                problems.append(f"daemon exited with code {code}")
            assert self.proc.stdout is not None
            self.proc.stdout.close()
            self.loop.close()
        return problems


class Serve:
    """Two connections each alternate a compress and a decompress.

    The daemon runs in its own process (``python -m repro.cli serve``);
    each compress sends one 64 KiB payload (static pyzlib, 64 KiB
    chunks) and each decompress sends the reply back.  A payload holds a
    slice of every variable, so every request does the same mix of fast
    and slow work and the latency percentiles do not sit on the gap
    between the variables.
    """

    PAYLOAD = 64 * KIB

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.request = RequestConfig(codec="pyzlib", chunk_bytes=self.PAYLOAD)
        self.daemon: Daemon | None = None
        self.daemon_pids: list[int] = []
        self.payloads: list[bytes] = []
        self.problems: list[str] = []
        self.broken = False
        self.env = {
            "workers": WORKERS,
            "shards": 0,
            "clients": CLIENTS,
            "chunk_bytes": self.PAYLOAD,
            "payload_bytes": self.PAYLOAD,
            "values_per_variable": VALUES,
            "variables": list(VARIABLES),
            "pipeline": "pyzlib/hb2/col",
        }

    def setup(self) -> None:
        """Generate the payloads, start the daemon, warm both connections."""
        self.payloads = [
            payload
            for t in range(2)
            for payload in records(timestep(self.seed, t))
        ]
        self._start(traced=False)

    def _start(self, traced: bool) -> None:
        self.daemon = Daemon(traced)
        self.daemon_pids.append(self.daemon.proc.pid)
        self.broken = False
        warm_up = Pass()
        # Three rounds: every connection compresses and decompresses.
        self.daemon.run(self._rounds(warm_up, math.inf, rounds=3))
        if warm_up.failed:
            self.problems.append(f"warm-up requests failed: {dict(warm_up.errors)}")

    def _stop(self) -> None:
        if self.daemon is not None:
            daemon, self.daemon = self.daemon, None
            self.problems += daemon.stop()

    def teardown(self) -> list[str]:
        """Stop the daemon; returns every problem seen since the last call."""
        self._stop()
        problems, self.problems = self.problems, []
        return problems

    def pids(self) -> list[int]:
        """Daemon processes this workload started."""
        return list(self.daemon_pids)

    def measure(self, seconds: float, traced: bool) -> Pass:
        """Run both connections for ``seconds`` of wall time."""
        if traced:
            # The traced pass gets its own daemon with REPRO_OBS=1; its
            # start is not part of the set-up time.
            self._stop()
            self._start(traced=True)
        assert self.daemon is not None
        p = Pass()
        stat0 = self.daemon.stat()
        refused0 = self.daemon.refused
        t_start = time.perf_counter()
        self.daemon.run(self._rounds(p, t_start + seconds))
        p.wall = time.perf_counter() - t_start
        stat1 = self.daemon.stat()
        server0, server1 = stat0["server"], stat1["server"]
        acknowledged = server1["acknowledged"] - server0["acknowledged"]
        answered = server1["answered"] - server0["answered"]
        expected = p.attempted - (self.daemon.refused - refused0)
        if not acknowledged == answered == expected:
            p.problem(
                f"daemon acknowledged {acknowledged} and answered {answered} "
                f"of {expected} requests sent and not refused"
            )
        if traced:
            p.layers = self._layers(p, stat0, stat1, acknowledged, answered)
        return p

    async def _rounds(self, p: Pass, deadline: float, rounds: int = sys.maxsize) -> None:
        """Drive both connections in lockstep rounds until ``deadline`` or
        after ``rounds``.

        Each connection alternates a compress and a decompress of the
        reply, offset by one request from the other connection, so one
        connection compresses while the other decompresses.  A connection
        whose turn is a decompress but that holds no reply (in the first
        round, or after a failed compress) sits the round out, so at most
        one request of each kind is in flight.  The fixed pairing keeps
        the latencies from depending on how two free-running streams
        drift in phase.
        """
        pending: list[tuple[bytes, bytes] | None] = [None] * CLIENTS
        sent = 0
        r = 0
        while r < rounds and time.perf_counter() < deadline and not self.broken:
            root = p.spans.start("serve.round", r)
            jobs = []
            for c in range(CLIENTS):
                trace = r * CLIENTS + c
                job = pending[c]
                if (r + c) % 2:
                    if job is not None:
                        pending[c] = None
                        jobs.append(self._decompress(p, c, trace, root, *job))
                else:
                    payload = self.payloads[sent % len(self.payloads)]
                    sent += 1
                    jobs.append(self._compress(p, c, trace, root, payload))
            for job in await asyncio.gather(*jobs):
                if job is not None:
                    pending[job[0]] = job[1:]
            p.spans.end(root)
            r += 1

    async def _compress(
        self, p: Pass, c: int, trace: int, parent: int, payload: bytes
    ) -> tuple[int, bytes, bytes] | None:
        """One compress request; returns ``(c, payload, reply)`` on success."""
        assert self.daemon is not None
        sid = p.spans.start("serve.compress", trace, parent)
        self.daemon.sent += 1
        try:
            container = await self.daemon.clients[c].compress(payload, self.request)
        except OP_ERRORS as exc:
            p.write_time += self._failed(p, sid, exc)
            return None
        seconds = p.spans.end(sid)
        p.write_time += seconds
        p.ok_write(len(payload), seconds)
        p.input_bytes += len(payload)
        p.stored_bytes += len(container)
        return c, payload, container

    async def _decompress(
        self, p: Pass, c: int, trace: int, parent: int, payload: bytes, container: bytes
    ) -> None:
        """One decompress request, checked against its payload."""
        assert self.daemon is not None
        sid = p.spans.start("serve.decompress", trace, parent)
        self.daemon.sent += 1
        try:
            restored = await self.daemon.clients[c].decompress(container)
        except OP_ERRORS as exc:
            p.read_time += self._failed(p, sid, exc)
            return None
        seconds = p.spans.end(sid)
        p.read_time += seconds
        if restored == payload:
            p.ok_read(len(restored), seconds)
        else:
            p.mismatch(f"request {trace}: decompress reply differs from its payload")
        return None

    def _failed(self, p: Pass, sid: int, exc: BaseException) -> float:
        """Count a failed request; returns how long it took."""
        assert self.daemon is not None
        seconds = p.spans.end(sid, exc)
        p.fail(exc)
        self.daemon.note_failure(exc)
        # A connection error leaves the stream unusable; stop the pass.
        self.broken = self.broken or isinstance(exc, OSError)
        return seconds

    def _layers(
        self,
        p: Pass,
        stat0: dict,
        stat1: dict,
        acknowledged: int,
        answered: int,
    ) -> dict[str, float]:
        e0, e1 = stat0["engine"], stat1["engine"]

        def delta(key: str) -> float:
            return e1[key] - e0[key]

        n = max(p.attempted, 1)
        engine_ms = (delta("worker_seconds") + delta("queue_wait_seconds")) * 1e3 / n
        round_trip_ms = (
            p.spans.total("serve.compress") + p.spans.total("serve.decompress")
        ) * 1e3 / n
        return {
            "parallel.tasks": delta("tasks") / n,
            "parallel.shm_bytes": delta("shm_bytes") / n,
            "parallel.worker_s": delta("worker_seconds") / n,
            "parallel.busy_frac": delta("worker_seconds") / (p.wall * e1["workers"]),
            "serve.engine_ms_per_req": engine_ms,
            "serve.self_ms_per_req": round_trip_ms - engine_ms,
            "serve.acknowledged": float(acknowledged),
            "serve.answered": float(answered),
            **p.unattributed(n),
        }


def make(name: str, seed: int, scratch: Path):
    """The workload called ``name``."""
    if name == "ingest-auto":
        return Ingest(seed, scratch)
    if name == "serve":
        return Serve(seed, scratch)
    raise ValueError(f"unknown workload {name!r}")
