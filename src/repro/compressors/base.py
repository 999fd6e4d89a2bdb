"""Codec interface, registry, and measurement helpers.

Every compressor in the substrate implements :class:`Codec`: a pure
``bytes -> bytes`` transform pair with a guaranteed bit-exact round trip.
Codecs register themselves under a short name (``pyzlib``, ``pylzo``, ...)
so the PRIMACY pipeline, the CLI, and the benchmark harness can select the
backend "solver" by configuration -- mirroring how the paper swaps zlib /
lzo / bzlib2 behind the same preconditioner.

:func:`evaluate_codec` implements the paper's three headline metrics
(Eqns 1-2): compression ratio CR, compression throughput CTP, and
decompression throughput DTP, all relative to *original* data size.
"""

from __future__ import annotations

import abc
import functools
import time
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.obs import metrics as _obs_metrics
from repro.obs import trace as _obs_trace
from repro.obs.runtime import STATE as _OBS_STATE
from repro.util.varint import decode_uvarint

__all__ = [
    "Codec",
    "CodecError",
    "CorruptionError",
    "TruncationError",
    "checked_uvarint",
    "CodecMetrics",
    "register_codec",
    "get_codec",
    "available_codecs",
    "evaluate_codec",
    "as_bytes",
]


class CodecError(Exception):
    """Raised when a compressed stream is malformed or inconsistent."""


class CorruptionError(CodecError):
    """A stored artifact is damaged: bad magic, failed checksum, an
    inconsistent table, or an undecodable record.

    ``region`` names the part of the artifact the decoder was in
    (``"header"``, ``"footer"``, ``"chunk[3]"``, ...) and ``offset`` the
    absolute byte position where decoding diverged, when known -- the
    fsck tooling uses both to localize damage.
    """

    def __init__(
        self,
        message: str,
        *,
        region: str | None = None,
        offset: int | None = None,
    ) -> None:
        super().__init__(message)
        self.region = region
        self.offset = offset

    def __reduce__(self):
        # Keep region/offset across pickling (worker -> parent process).
        return (
            type(self),
            (self.args[0] if self.args else "",),
            {"region": self.region, "offset": self.offset},
        )


class TruncationError(CorruptionError):
    """The input ends before the structure it promised is complete."""


def checked_uvarint(
    data: bytes | bytearray | memoryview,
    pos: int,
    what: str,
    region: str | None = None,
) -> tuple[int, int]:
    """Decode one uvarint of untrusted input with typed failures.

    The one uvarint reader of every decoder that must not leak a bare
    ``ValueError`` (codec streams, PRIF/PRAC metadata, the serve wire
    protocol).  A uvarint is at most 10 bytes long, so one that fails
    with fewer than 10 bytes left ran out: :class:`TruncationError`;
    otherwise it is too long: :class:`CorruptionError`.  Both carry
    ``region`` and the byte offset.
    """
    try:
        return decode_uvarint(data, pos)
    except ValueError as exc:
        kind = TruncationError if len(data) - pos < 10 else CorruptionError
        raise kind(
            f"bad {what} at byte {pos}: {exc}", region=region, offset=pos
        ) from exc


def as_bytes(data: bytes | bytearray | memoryview | np.ndarray) -> bytes:
    """Normalize codec input to an immutable ``bytes`` object."""
    if isinstance(data, bytes):
        return data
    if isinstance(data, (bytearray, memoryview)):
        return bytes(data)
    if isinstance(data, np.ndarray):
        return np.ascontiguousarray(data).tobytes()
    raise TypeError(f"cannot interpret {type(data).__name__} as bytes")


def _observe_codec_call(fn, op: str):
    """Wrap a concrete ``compress``/``decompress`` with the obs hook.

    Disabled cost is one flag check; enabled, every call records bytes
    in/out, a latency histogram sample, and a ``codec.<op>`` span
    labelled with the codec's registry name.  The raw implementation
    stays reachable as ``__wrapped__`` (the observability-overhead
    benchmark times it directly).
    """

    @functools.wraps(fn)
    def wrapper(self, data):
        if not _OBS_STATE.enabled:
            return fn(self, data)
        t0 = time.perf_counter()
        out = fn(self, data)
        seconds = time.perf_counter() - t0
        reg = _obs_metrics.registry()
        reg.counter(f"codec.{op}.calls", codec=self.name).inc()
        reg.counter(f"codec.{op}.bytes_in", codec=self.name).inc(len(data))
        reg.counter(f"codec.{op}.bytes_out", codec=self.name).inc(len(out))
        reg.histogram(f"codec.{op}.seconds", codec=self.name).observe(seconds)
        _obs_trace.record_span(f"codec.{op}", seconds, codec=self.name)
        return out

    wrapper._obs_instrumented = True
    return wrapper


class Codec(abc.ABC):
    """Abstract lossless byte codec.

    Subclasses must satisfy ``decompress(compress(x)) == x`` for every byte
    string ``x`` (including the empty string), and raise :class:`CodecError`
    on malformed compressed input rather than returning garbage.
    """

    #: Registry name; subclasses override.
    name: str = "abstract"

    #: Whether :func:`get_codec` may hand out one shared instance for
    #: identical ``(name, options)``.  Codecs that keep per-call state
    #: on the instance (e.g. ``PrimacyCodec.last_stats``) must opt out.
    cacheable: bool = True

    #: Whether ``repro.obs`` wraps this codec's compress/decompress.
    #: Internal proxies that would double-count (``_TimingCodec``) opt
    #: out.
    instrumented: bool = True

    def __init_subclass__(cls, **kwargs) -> None:
        # The observability hook: every concrete codec implementation is
        # wrapped exactly once, at class-creation time, so the pipeline,
        # the CLI, and tests all see the same instrumented entry points.
        super().__init_subclass__(**kwargs)
        if not cls.instrumented:
            return
        for op in ("compress", "decompress"):
            fn = cls.__dict__.get(op)
            if fn is not None and not getattr(fn, "_obs_instrumented", False):
                setattr(cls, op, _observe_codec_call(fn, op))

    @abc.abstractmethod
    def compress(self, data: bytes) -> bytes:
        """Compress ``data``; always returns a self-describing stream."""

    @abc.abstractmethod
    def decompress(self, data: bytes) -> bytes:
        """Invert :meth:`compress` exactly."""

    def compression_ratio(self, data: bytes) -> float:
        """CR = original size / compressed size (paper Eqn 1)."""
        data = as_bytes(data)
        if not data:
            return 1.0
        return len(data) / len(self.compress(data))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"


_REGISTRY: dict[str, type[Codec]] = {}

# Instance cache for get_codec: hot paths (per-chunk pipeline
# construction inside pool workers) request the same (name, options)
# codec thousands of times; construction can be expensive (Huffman
# tables, hash chains).  LRU-bounded; invalidated per name when a codec
# class is (re-)registered.
_INSTANCE_CACHE: "OrderedDict[tuple, Codec]" = OrderedDict()
_INSTANCE_CACHE_SIZE = 64


def register_codec(cls: type[Codec]) -> type[Codec]:
    """Class decorator: register ``cls`` under ``cls.name``.

    Re-registering a name drops any cached instances of the old class.
    """
    if not issubclass(cls, Codec):
        raise TypeError("register_codec expects a Codec subclass")
    if cls.name in ("abstract", ""):
        raise ValueError("codec must define a non-default name")
    _REGISTRY[cls.name] = cls
    for key in [k for k in _INSTANCE_CACHE if k[0] == cls.name]:
        del _INSTANCE_CACHE[key]
    return cls


def get_codec(name: str, **kwargs) -> Codec:
    """Instantiate (or fetch a cached instance of) a registered codec.

    Identical ``(name, options)`` requests share one instance when the
    codec class declares itself :attr:`Codec.cacheable` and the options
    are hashable; otherwise a fresh instance is constructed.
    """
    try:
        cls = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown codec {name!r}; available: {known}") from None
    if not cls.cacheable:
        return cls(**kwargs)
    try:
        key = (name, tuple(sorted(kwargs.items())))
        hash(key)
    except TypeError:
        return cls(**kwargs)
    cached = _INSTANCE_CACHE.get(key)
    if cached is not None:
        _INSTANCE_CACHE.move_to_end(key)
        return cached
    codec = cls(**kwargs)
    _INSTANCE_CACHE[key] = codec
    if len(_INSTANCE_CACHE) > _INSTANCE_CACHE_SIZE:
        _INSTANCE_CACHE.popitem(last=False)
    return codec


def available_codecs() -> list[str]:
    """Names of all registered codecs, sorted."""
    return sorted(_REGISTRY)


@dataclass(frozen=True)
class CodecMetrics:
    """The paper's evaluation triple for one codec on one input.

    Attributes
    ----------
    compression_ratio:
        ``original / compressed`` (Eqn 1; bigger is better).
    compression_mbps, decompression_mbps:
        CTP and DTP in MB/s of *original* data per second (Eqn 2).
    original_bytes, compressed_bytes:
        Raw sizes for downstream modeling (the model needs
        :math:`\\sigma` = compressed/original, the inverse of CR).
    """

    codec: str
    original_bytes: int
    compressed_bytes: int
    compression_ratio: float
    compression_mbps: float
    decompression_mbps: float

    @property
    def sigma(self) -> float:
        """Compressed-vs-original fraction (Table I's sigma)."""
        if self.original_bytes == 0:
            return 1.0
        return self.compressed_bytes / self.original_bytes


def evaluate_codec(codec: Codec, data: bytes, repeats: int = 1) -> CodecMetrics:
    """Measure CR / CTP / DTP of ``codec`` on ``data``.

    Runs ``repeats`` timed iterations and keeps the *best* time for each
    direction (standard practice for throughput microbenchmarks: the minimum
    is the least noisy estimator of the true cost).
    Raises :class:`CodecError` if the round trip is not exact -- a metric
    from a broken codec would be meaningless.
    """
    data = as_bytes(data)
    if repeats < 1:
        raise ValueError("repeats must be >= 1")

    best_ct = float("inf")
    compressed = b""
    for _ in range(repeats):
        t0 = time.perf_counter()
        compressed = codec.compress(data)
        best_ct = min(best_ct, time.perf_counter() - t0)

    best_dt = float("inf")
    restored = b""
    for _ in range(repeats):
        t0 = time.perf_counter()
        restored = codec.decompress(compressed)
        best_dt = min(best_dt, time.perf_counter() - t0)

    if restored != data:
        raise CodecError(f"codec {codec.name!r} failed round trip")

    n = len(data)
    return CodecMetrics(
        codec=codec.name,
        original_bytes=n,
        compressed_bytes=len(compressed),
        compression_ratio=(n / len(compressed)) if compressed else 1.0,
        compression_mbps=n / 1e6 / best_ct if best_ct > 0 else float("inf"),
        decompression_mbps=n / 1e6 / best_dt if best_dt > 0 else float("inf"),
    )
