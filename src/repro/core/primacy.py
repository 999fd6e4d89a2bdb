"""The end-to-end PRIMACY compressor (Fig 2) and its container format.

:class:`PrimacyCompressor` implements the full pipeline per chunk:

1. split the byte matrix into high-order (exponent) and low-order
   (mantissa) parts;
2. frequency-analyze the high-order byte sequences and apply the
   frequency-ranked ID mapping (:mod:`repro.core.idmap`);
3. linearize the ID matrix (column order by default) and compress it with
   the configured backend codec ("solver");
4. hand the low-order matrix to the ISOBAR partitioner;
5. write the per-chunk index metadata, compressed streams, and checksum
   into a self-describing container.

It also collects :class:`PrimacyStats` -- per-chunk sizes, the
:math:`\\alpha` / :math:`\\sigma` fractions, and stage timings -- which are
exactly the inputs of the paper's performance model (Table I), so a
compression run doubles as a model calibration run.

:class:`PrimacyCodec` adapts the compressor to the generic byte
:class:`~repro.compressors.base.Codec` interface (registered as
``"primacy"``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.compressors.base import (
    Codec,
    CodecError,
    CorruptionError,
    TruncationError,
    checked_uvarint,
    get_codec,
    register_codec,
)
from repro.core.chunking import DEFAULT_CHUNK_BYTES, Chunker
from repro.core.idmap import FrequencyIndex, IdMapper, IndexReusePolicy
from repro.core.kernels import (
    ScratchArena,
    fill_high_from_seqs,
    ids_from_stream,
    linearize_ids,
    low_matrix_view,
    pack_sequences,
    raw_matrix,
)
from repro.core.linearize import Linearization
from repro.isobar import IsobarAnalysis, IsobarConfig, IsobarPartitioner
from repro.isobar.bitplane import BitplaneAnalysis, BitplanePartitioner
from repro.obs import metrics as _obs_metrics
from repro.obs import trace as _obs_trace
from repro.obs.runtime import STATE as _OBS_STATE
from repro.util.buffers import as_view
from repro.util.checksum import adler32
from repro.util.varint import decode_uvarint, encode_uvarint

__all__ = [
    "PrimacyConfig",
    "PrimacyChunkStats",
    "PreparedChunk",
    "PrimacyStats",
    "PrimacyCompressor",
    "PrimacyCodec",
    "ContainerHeader",
    "frame_container",
    "parse_container_header",
    "split_container",
]

_MAGIC = b"PRIM"
_VERSION = 1

_FLAG_CHECKSUM = 0x01
_FLAG_BIT_ISOBAR = 0x02
_CHUNK_FLAG_INLINE_INDEX = 0x01
#: Record flags bit marking a *planned* record: a standard record
#: wrapped in a per-chunk pipeline header (:mod:`repro.planner.record`).
#: Plain records only ever use bit 0x01, so the bit is unambiguous.
_CHUNK_FLAG_PLANNED = 0x02


@dataclass(frozen=True)
class PrimacyConfig:
    """Configuration of the PRIMACY pipeline.

    Attributes
    ----------
    codec:
        Registry name of the backend "solver" compressor (paper: zlib).
    chunk_bytes:
        In-situ chunk size (paper: 3 MB).
    word_bytes / high_bytes:
        Element width and the high-order split width (paper: 8 / 2).
    linearization:
        ID-byte serialization order (paper: column).
    index_policy / correlation_threshold:
        Per-chunk index rebuild policy (Sec II-F); ``CORRELATED`` rebuilds
        when the cosine similarity of chunk frequency vectors drops below
        the threshold.
    isobar:
        Analyzer thresholds for the low-order partitioner.
    isobar_granularity:
        ``"byte"`` (default) partitions low-order byte columns;
        ``"bit"`` uses the faithful bit-plane analysis
        (:mod:`repro.isobar.bitplane`) -- better extraction on
        partially-regular bytes at ~8x the analysis work.
    checksum:
        Seal each chunk with Adler-32 of the original bytes.
    """

    codec: str = "pyzlib"
    chunk_bytes: int = DEFAULT_CHUNK_BYTES
    word_bytes: int = 8
    high_bytes: int = 2
    linearization: Linearization = Linearization.COLUMN
    index_policy: IndexReusePolicy = IndexReusePolicy.PER_CHUNK
    correlation_threshold: float = 0.95
    isobar: IsobarConfig = field(default_factory=IsobarConfig)
    isobar_granularity: str = "byte"
    checksum: bool = True

    def __post_init__(self) -> None:
        if not 1 <= self.high_bytes < self.word_bytes:
            raise ValueError("high_bytes must be in [1, word_bytes)")
        if self.high_bytes > 3:
            raise ValueError("high_bytes > 3 would need a 4+ GiB index table")
        if self.isobar_granularity not in ("byte", "bit"):
            raise ValueError("isobar_granularity must be 'byte' or 'bit'")


# --------------------------------------------------------------------- #
# container framing (shared by the serial and parallel paths)            #
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class ContainerHeader:
    """Decoded PRIM container header (everything before the records)."""

    codec: str
    checksum: bool
    bit_isobar: bool
    word_bytes: int
    high_bytes: int
    linearization: Linearization
    total_len: int
    tail: bytes
    n_chunks: int
    records_pos: int  # byte offset of the first record-length varint

    def to_config(self, base: "PrimacyConfig | None" = None) -> "PrimacyConfig":
        """Pipeline configuration matching this container.

        Fields the container does not record (chunk size, ISOBAR
        thresholds, index policy) are inherited from ``base`` -- none of
        them affect decoding.
        """
        base = base or PrimacyConfig()
        return PrimacyConfig(
            codec=self.codec,
            chunk_bytes=base.chunk_bytes,
            word_bytes=self.word_bytes,
            high_bytes=self.high_bytes,
            linearization=self.linearization,
            index_policy=base.index_policy,
            correlation_threshold=base.correlation_threshold,
            isobar=base.isobar,
            isobar_granularity="bit" if self.bit_isobar else "byte",
            checksum=self.checksum,
        )

    def join(self, chunks) -> bytes:
        """The decoded ``chunks`` in order plus the tail: the original bytes.

        Raises :class:`CorruptionError` unless they add up to the length
        the header records.
        """
        result = b"".join(chunks) + self.tail
        if len(result) != self.total_len:
            raise CorruptionError("container length mismatch")
        return result


def frame_container(
    config: "PrimacyConfig", data_len: int, tail: bytes, records
) -> bytes:
    """Serialize a PRIM container: the preamble, then each chunk record
    behind its uvarint length.

    Every writer of PRIM containers -- :meth:`PrimacyCompressor.compress`,
    :class:`repro.parallel.ParallelCompressor` and the serve daemon --
    frames its records here, which is what keeps their outputs
    byte-identical.
    """
    out = bytearray()
    out += _MAGIC
    out.append(_VERSION)
    flags = _FLAG_CHECKSUM if config.checksum else 0
    if config.isobar_granularity == "bit":
        flags |= _FLAG_BIT_ISOBAR
    out.append(flags)
    codec_name = config.codec.encode("ascii")
    out += encode_uvarint(len(codec_name))
    out += codec_name
    out += encode_uvarint(config.word_bytes)
    out += encode_uvarint(config.high_bytes)
    out.append(0 if config.linearization is Linearization.COLUMN else 1)
    out += encode_uvarint(data_len)
    out += encode_uvarint(len(tail))
    out += tail
    out += encode_uvarint(len(records))
    for record in records:
        out += encode_uvarint(len(record))
        out += record
    return bytes(out)


def parse_container_header(data: bytes | memoryview) -> ContainerHeader:
    """Parse a PRIM container preamble; cheap (no payload decoding).

    Malformed preambles raise typed :class:`CorruptionError` /
    :class:`TruncationError` -- never a bare ``IndexError`` from a short
    buffer.
    """
    if len(data) < 6:
        raise TruncationError(
            "container shorter than its fixed preamble",
            region="header",
            offset=len(data),
        )
    if bytes(data[:4]) != _MAGIC:
        raise CorruptionError("not a PRIMACY container", region="header")
    version = data[4]
    if version != _VERSION:
        raise CorruptionError(
            f"unsupported container version {version}", region="header"
        )
    flags = data[5]
    pos = 6
    name_len, pos = checked_uvarint(data, pos, "container codec name length", "header")
    raw_name = bytes(data[pos : pos + name_len])
    if len(raw_name) != name_len:
        raise TruncationError(
            "container codec name truncated", region="header", offset=pos
        )
    try:
        codec_name = raw_name.decode("ascii")
    except UnicodeDecodeError as exc:
        raise CorruptionError(
            f"non-ASCII codec name in container header: {exc}",
            region="header",
        ) from exc
    pos += name_len
    word_bytes, pos = checked_uvarint(data, pos, "container word width", "header")
    high_bytes, pos = checked_uvarint(data, pos, "container high-order width", "header")
    if pos >= len(data):
        raise TruncationError(
            "container header missing linearization byte",
            region="header",
            offset=pos,
        )
    linearization = Linearization.COLUMN if data[pos] == 0 else Linearization.ROW
    pos += 1
    total_len, pos = checked_uvarint(data, pos, "container total length", "header")
    tail_len, pos = checked_uvarint(data, pos, "container tail length", "header")
    tail = bytes(data[pos : pos + tail_len])
    if len(tail) != tail_len:
        raise TruncationError(
            "container tail truncated", region="header", offset=pos
        )
    pos += tail_len
    n_chunks, pos = checked_uvarint(data, pos, "container chunk count", "header")
    if n_chunks > max(len(data) - pos, 0):
        # Each record needs at least a length prefix byte; reject absurd
        # counts before anyone loops or allocates on them.
        raise CorruptionError(
            f"container claims {n_chunks} chunks in "
            f"{max(len(data) - pos, 0)} remaining bytes",
            region="header",
        )
    return ContainerHeader(
        codec=codec_name,
        checksum=bool(flags & _FLAG_CHECKSUM),
        bit_isobar=bool(flags & _FLAG_BIT_ISOBAR),
        word_bytes=word_bytes,
        high_bytes=high_bytes,
        linearization=linearization,
        total_len=total_len,
        tail=tail,
        n_chunks=n_chunks,
        records_pos=pos,
    )


def split_container(
    data: bytes | memoryview,
) -> tuple[ContainerHeader, list[memoryview], bool]:
    """Invert :func:`frame_container` without decoding any payload.

    Returns the header, the ``n_chunks`` records as zero-copy
    memoryviews, and whether every record carries its own index --
    the condition for decoding the records independently (in any order,
    on any worker).  Plain records with an inline index and planned
    records (whose inner record always has one) qualify; index-reuse
    records and empty ones do not, so their containers take the serial
    decoder, which raises the typed error for an empty record.
    """
    header = parse_container_header(data)
    view = memoryview(data) if not isinstance(data, memoryview) else data
    pos = header.records_pos
    records = []
    for i in range(header.n_chunks):
        record_len, pos = checked_uvarint(
            view, pos, f"record {i} length prefix", region=f"chunk[{i}]"
        )
        record = view[pos : pos + record_len]
        if len(record) != record_len:
            raise TruncationError(
                f"record {i} truncated at byte {pos}",
                region=f"chunk[{i}]",
                offset=pos,
            )
        pos += record_len
        records.append(record)
    independent = all(
        len(r) and r[0] & (_CHUNK_FLAG_INLINE_INDEX | _CHUNK_FLAG_PLANNED)
        for r in records
    )
    return header, records, independent


@dataclass
class PrimacyChunkStats:
    """Per-chunk measurements (sizes in bytes, times in seconds)."""

    n_values: int
    n_unique: int
    index_reused: bool
    index_bytes: int
    high_in: int
    high_out: int
    low_in: int
    low_compressible_in: int
    low_out: int
    prec_seconds: float
    codec_seconds: float

    @property
    def total_in(self) -> int:
        """Input bytes of this chunk (high + low)."""
        return self.high_in + self.low_in

    @property
    def total_out(self) -> int:
        """Output bytes of this chunk (streams + index)."""
        return self.high_out + self.low_out + self.index_bytes


@dataclass(frozen=True)
class PreparedChunk:
    """A chunk through the codec-independent stages of the pipeline.

    Made by :meth:`PrimacyCompressor.prepare_chunk` and coded by
    :meth:`PrimacyCompressor.encode_prepared`.  ``head`` is the record up
    to the streams (flags, value count, index); ``low`` is a view of the
    chunk's low-order bytes; ``checksum`` is empty without checksums.
    """

    config: PrimacyConfig
    n_values: int
    reuse: bool
    used_index: FrequencyIndex
    freq: np.ndarray
    head: bytes
    index_bytes: int
    id_stream: bytes
    low: np.ndarray
    analysis: IsobarAnalysis | BitplaneAnalysis
    checksum: bytes
    prec_seconds: float


@dataclass
class PrimacyStats:
    """Aggregate statistics of one compression run.

    Provides the paper's model inputs: ``alpha1`` (high-order fraction,
    treated as the compressible chunk fraction), ``alpha2`` (compressible
    fraction of the low-order part), ``sigma_ho`` / ``sigma_lo``
    (compressed-vs-original ratios) and the measured preconditioner /
    compressor throughputs.
    """

    chunks: list[PrimacyChunkStats] = field(default_factory=list)
    container_bytes: int = 0
    original_bytes: int = 0

    def add(self, chunk: PrimacyChunkStats) -> None:
        """Record one sample/span/chunk into this accumulator."""
        self.chunks.append(chunk)

    # -- headline metrics ---------------------------------------------------

    @property
    def compression_ratio(self) -> float:
        """Original bytes over container bytes (Eqn 1)."""
        if self.container_bytes == 0:
            return 1.0
        return self.original_bytes / self.container_bytes

    @property
    def metadata_bytes(self) -> int:
        """The paper's delta: index metadata across all chunks."""
        return sum(c.index_bytes for c in self.chunks)

    # -- model parameters -----------------------------------------------------

    @property
    def alpha1(self) -> float:
        """High-order (ID-mapped) fraction of each chunk."""
        total = sum(c.total_in for c in self.chunks)
        if total == 0:
            return 0.0
        return sum(c.high_in for c in self.chunks) / total

    @property
    def alpha2(self) -> float:
        """Compressible fraction of the low-order bytes (ISOBAR verdict)."""
        low = sum(c.low_in for c in self.chunks)
        if low == 0:
            return 0.0
        return sum(c.low_compressible_in for c in self.chunks) / low

    @property
    def sigma_ho(self) -> float:
        """Compressed/original for the high-order part (index included)."""
        high = sum(c.high_in for c in self.chunks)
        if high == 0:
            return 1.0
        return sum(c.high_out + c.index_bytes for c in self.chunks) / high

    @property
    def sigma_lo(self) -> float:
        """Compressed/original for the compressible low-order columns."""
        comp_in = sum(c.low_compressible_in for c in self.chunks)
        if comp_in == 0:
            return 1.0
        raw_in = sum(c.low_in - c.low_compressible_in for c in self.chunks)
        comp_out = sum(c.low_out for c in self.chunks) - raw_in
        return max(comp_out, 0) / comp_in

    @property
    def preconditioner_mbps(self) -> float:
        """Measured preconditioner throughput, MB/s (T_prec)."""
        t = sum(c.prec_seconds for c in self.chunks)
        if t == 0:
            return float("inf")
        return sum(c.total_in for c in self.chunks) / 1e6 / t

    @property
    def compressor_mbps(self) -> float:
        """Measured backend-codec throughput, MB/s (T_comp)."""
        t = sum(c.codec_seconds for c in self.chunks)
        if t == 0:
            return float("inf")
        compressed_input = sum(
            c.high_in + c.low_compressible_in for c in self.chunks
        )
        return compressed_input / 1e6 / t


def _obs_record_chunk(stats: "PrimacyChunkStats") -> None:
    """Register one compressed chunk's telemetry (obs enabled only).

    Stage wall times re-use the measurements the pipeline takes anyway
    (``prec_seconds`` / ``codec_seconds``), so tracing adds no second
    timer to the hot loop.
    """
    reg = _obs_metrics.registry()
    reg.counter("primacy.compress.chunks").inc()
    reg.counter("primacy.compress.bytes_in").inc(stats.total_in)
    reg.counter("primacy.compress.bytes_out").inc(stats.total_out)
    reg.counter("primacy.compress.index_bytes").inc(stats.index_bytes)
    reg.counter("primacy.compress.precondition_seconds").inc(
        stats.prec_seconds
    )
    reg.counter("primacy.compress.solver_seconds").inc(stats.codec_seconds)
    if stats.total_out:
        reg.histogram(
            "primacy.compress.chunk_ratio",
            boundaries=_obs_metrics.DEFAULT_RATIO_BUCKETS,
        ).observe(stats.total_in / stats.total_out)
    _obs_trace.record_span("primacy.precondition", stats.prec_seconds)
    _obs_trace.record_span("primacy.solver", stats.codec_seconds)


class _TimingCodec(Codec):
    """Proxy that accumulates time spent inside the backend codec."""

    name = "timing-proxy"
    # The inner codec is instrumented already; wrapping the proxy too
    # would double-count every solver call in the obs registry.
    instrumented = False

    def __init__(self, inner: Codec) -> None:
        self.inner = inner
        self.seconds = 0.0

    def compress(self, data: bytes) -> bytes:
        """Compress ``data`` into a self-describing stream (Codec API)."""
        t0 = time.perf_counter()
        out = self.inner.compress(data)
        self.seconds += time.perf_counter() - t0
        return out

    def decompress(self, data: bytes) -> bytes:
        """Invert :meth:`compress` exactly (Codec API)."""
        t0 = time.perf_counter()
        out = self.inner.decompress(data)
        self.seconds += time.perf_counter() - t0
        return out


class PrimacyCompressor:
    """Chunked PRIMACY compressor with a self-describing container.

    ``arena`` lets callers that own several compressors (the parallel
    engine's per-worker compressor cache, the storage writer) share one
    :class:`~repro.core.kernels.ScratchArena`; by default each
    compressor owns its own.  The arena lives as long as the compressor
    and is reused by every chunk, so a steady-state stream performs no
    scratch allocations.

    ``codec`` is the backend instance to compress with, for an option
    that the configuration does not name (the planner's ``pyzlib`` run
    parse); it must be registered under ``config.codec``, whose decoder
    reads its streams.  By default the registry's instance is used.
    """

    def __init__(
        self,
        config: PrimacyConfig | None = None,
        *,
        arena: ScratchArena | None = None,
        codec: Codec | None = None,
    ) -> None:
        self.config = config or PrimacyConfig()
        self.arena = arena if arena is not None else ScratchArena()
        if codec is not None and codec.name != self.config.codec:
            raise ValueError(
                f"codec {codec.name!r} does not match config codec "
                f"{self.config.codec!r}"
            )
        self._codec = codec if codec is not None else get_codec(self.config.codec)
        self._mapper = IdMapper(seq_bytes=self.config.high_bytes)
        self._chunker = Chunker(self.config.chunk_bytes, self.config.word_bytes)

    def _make_partitioner(self, codec):
        if self.config.isobar_granularity == "bit":
            return BitplanePartitioner(codec)
        return IsobarPartitioner(codec, self.config.isobar, arena=self.arena)

    # ------------------------------------------------------------------ #
    # compression                                                         #
    # ------------------------------------------------------------------ #

    def compress(
        self, data: bytes | bytearray | memoryview | np.ndarray
    ) -> tuple[bytes, PrimacyStats]:
        """Compress raw bytes of little-endian words; returns (container, stats).

        Accepts any byte-buffer type (including NumPy arrays) without
        copying the payload.
        """
        data = as_view(data)
        stats = PrimacyStats(original_bytes=len(data))
        chunks, tail = self._chunker.split(data)

        records = []
        prev_index: FrequencyIndex | None = None
        prev_freq: np.ndarray | None = None
        for chunk in chunks:
            record, chunk_stats, prev_index, prev_freq = self._compress_chunk(
                chunk.data, prev_index, prev_freq
            )
            records.append(record)
            stats.add(chunk_stats)
        out = frame_container(self.config, len(data), tail, records)
        stats.container_bytes = len(out)
        return out, stats

    # -- public chunk-level API (used by repro.storage) -------------------

    def compress_chunk(
        self,
        chunk: bytes | memoryview,
        state: tuple[FrequencyIndex, np.ndarray] | None = None,
    ) -> tuple[bytes, PrimacyChunkStats, tuple[FrequencyIndex, np.ndarray]]:
        """Compress one word-aligned chunk into a self-contained record.

        ``state`` carries the (index, frequency-vector) pair from the
        previous chunk for the index-reuse policies; pass the returned
        state into the next call.  Records produced here are the same as
        the container's chunk records.
        """
        if len(chunk) % self.config.word_bytes:
            raise ValueError("chunk must hold whole words")
        prev_index, prev_freq = state if state is not None else (None, None)
        record, stats, index, freq = self._compress_chunk(
            chunk, prev_index, prev_freq
        )
        return record, stats, (index, freq)

    def decompress_chunk(
        self,
        record: bytes,
        current_index: FrequencyIndex | None = None,
    ) -> tuple[bytes, FrequencyIndex]:
        """Decompress one chunk record produced by :meth:`compress_chunk`.

        ``current_index`` must be the index in effect from the preceding
        chunk when the record reuses an index (see
        :func:`chunk_record_index_section` for random-access handling).
        Returns ``(chunk_bytes, index_in_effect)``.
        """
        cfg = self.config
        return self._decompress_chunk(
            record,
            self._make_partitioner(self._codec),
            self._codec,
            cfg.word_bytes,
            cfg.high_bytes,
            cfg.linearization,
            cfg.checksum,
            current_index,
            self.arena,
        )

    def prepare_chunk(self, chunk: bytes | memoryview) -> PreparedChunk:
        """The stages of :meth:`compress_chunk` that no codec runs in.

        Split, frequency analysis, ID mapping (a fresh index), ID-stream
        linearization, the ISOBAR analysis and the checksum.  Any
        compressor whose config differs from this one's in the codec
        alone finishes the chunk with :meth:`encode_prepared`, so the
        planner pays for these stages once per chunk, not once per
        whole-chunk candidate.  ``chunk`` must stay unchanged until then.
        """
        if len(chunk) % self.config.word_bytes:
            raise ValueError("chunk must hold whole words")
        return self._prepare(chunk, None, None)

    def encode_prepared(
        self, prepared: PreparedChunk
    ) -> tuple[bytes, PrimacyChunkStats]:
        """Code a :meth:`prepare_chunk` result with this compressor's codec."""
        if replace(prepared.config, codec=self.config.codec) != self.config:
            raise ValueError("chunk was prepared under another configuration")
        return self._encode(prepared)

    def _compress_chunk(
        self,
        chunk: bytes,
        prev_index: FrequencyIndex | None,
        prev_freq: np.ndarray | None,
    ) -> tuple[bytes, PrimacyChunkStats, FrequencyIndex, np.ndarray]:
        prepared = self._prepare(chunk, prev_index, prev_freq)
        record, chunk_stats = self._encode(prepared)
        return record, chunk_stats, prepared.used_index, prepared.freq

    def _prepare(
        self,
        chunk: bytes | memoryview,
        prev_index: FrequencyIndex | None,
        prev_freq: np.ndarray | None,
    ) -> PreparedChunk:
        cfg = self.config
        # --- preconditioning: split + frequency analysis + ID mapping ---
        t0 = time.perf_counter()
        raw = raw_matrix(chunk, cfg.word_bytes)
        n_values = raw.shape[0]
        seqs = pack_sequences(raw, cfg.high_bytes, self.arena)
        low = low_matrix_view(raw, cfg.high_bytes)
        freq = self._mapper.frequencies(seqs)
        reuse = self._should_reuse(prev_index, prev_freq, freq)
        if reuse:
            base_index = prev_index
        else:
            base_index = self._mapper.index_from_frequencies(freq)
        ids, used_index = self._mapper.apply_ids(seqs, base_index)
        id_stream = linearize_ids(
            ids, cfg.high_bytes, cfg.linearization, self.arena
        )
        # --- ISOBAR analysis of the low-order matrix (counts as
        #     preconditioning; the codec time is the coding's) ---
        analysis = self._make_partitioner(self._codec).analyze(low)
        prec_seconds = time.perf_counter() - t0

        # --- the record up to the streams: flags, count, index ---
        head = bytearray()
        head.append(0 if reuse else _CHUNK_FLAG_INLINE_INDEX)
        head += encode_uvarint(n_values)
        if reuse:
            extension = used_index.values[base_index.n_unique :]
            index = encode_uvarint(extension.size)
            index += extension.astype(">u4" if cfg.high_bytes > 2 else ">u2").tobytes()
        else:
            index = used_index.serialize()
        head += index
        checksum = adler32(chunk).to_bytes(4, "big") if cfg.checksum else b""
        return PreparedChunk(
            config=cfg,
            n_values=n_values,
            reuse=reuse,
            used_index=used_index,
            freq=freq,
            head=bytes(head),
            index_bytes=len(index),
            id_stream=id_stream,
            low=low,
            analysis=analysis,
            checksum=checksum,
            prec_seconds=prec_seconds,
        )

    def _encode(
        self, prepared: PreparedChunk
    ) -> tuple[bytes, PrimacyChunkStats]:
        cfg = self.config
        timing_codec = _TimingCodec(self._codec)
        partitioner = self._make_partitioner(timing_codec)
        low, analysis = prepared.low, prepared.analysis

        # --- solver: backend codec over the ID stream and ISOBAR's
        #     compressible columns ---
        high_compressed = timing_codec.compress(prepared.id_stream)
        low_blob = partitioner.compress_with_analysis(low, analysis)

        # --- serialize the chunk record ---
        record = bytearray(prepared.head)
        record += encode_uvarint(len(high_compressed))
        record += high_compressed
        record += encode_uvarint(len(low_blob))
        record += low_blob
        record += prepared.checksum

        if isinstance(analysis, BitplaneAnalysis):
            low_compressible = int(round(low.size * analysis.compressible_fraction))
        else:
            low_compressible = prepared.n_values * int(
                analysis.compressible_columns.size
            )
        chunk_stats = PrimacyChunkStats(
            n_values=prepared.n_values,
            n_unique=prepared.used_index.n_unique,
            index_reused=prepared.reuse,
            index_bytes=prepared.index_bytes,
            high_in=prepared.n_values * cfg.high_bytes,
            high_out=len(high_compressed),
            low_in=low.size,
            low_compressible_in=low_compressible,
            low_out=len(low_blob),
            prec_seconds=prepared.prec_seconds,
            codec_seconds=timing_codec.seconds,
        )
        if _OBS_STATE.enabled:
            _obs_record_chunk(chunk_stats)
        return bytes(record), chunk_stats

    def _should_reuse(
        self,
        prev_index: FrequencyIndex | None,
        prev_freq: np.ndarray | None,
        freq: np.ndarray,
    ) -> bool:
        policy = self.config.index_policy
        if prev_index is None:
            return False
        if policy is IndexReusePolicy.PER_CHUNK:
            return False
        if policy is IndexReusePolicy.FIRST_CHUNK:
            return True
        corr = IdMapper.frequency_correlation(prev_freq, freq)
        return corr >= self.config.correlation_threshold

    # ------------------------------------------------------------------ #
    # decompression                                                       #
    # ------------------------------------------------------------------ #

    def decompress(self, data: bytes) -> bytes:
        """Invert :meth:`compress` exactly (Codec API)."""
        header, records, _ = split_container(data)
        if header.codec == self.config.codec:
            codec = self._codec
        else:
            try:
                codec = get_codec(header.codec)
            except KeyError as exc:
                raise CodecError(
                    f"unknown backend codec {header.codec!r}"
                ) from exc

        if not 1 <= header.high_bytes <= 3:
            raise CorruptionError(
                f"container header split width {header.high_bytes} "
                "is unusable",
                region="header",
            )
        partitioner = (
            BitplanePartitioner(codec)
            if header.bit_isobar
            else IsobarPartitioner(codec, self.config.isobar)
        )
        parts: list[bytes] = []
        current_index: FrequencyIndex | None = None
        for record in records:
            chunk_bytes, current_index = self._decompress_chunk(
                record,
                partitioner,
                codec,
                header.word_bytes,
                header.high_bytes,
                header.linearization,
                header.checksum,
                current_index,
                self.arena,
            )
            parts.append(chunk_bytes)
        return header.join(parts)

    @staticmethod
    def _decompress_chunk(
        record: bytes,
        partitioner: IsobarPartitioner,
        codec: Codec,
        word_bytes: int,
        high_bytes: int,
        linearization: Linearization,
        use_checksum: bool,
        current_index: FrequencyIndex | None,
        arena: ScratchArena,
    ) -> tuple[bytes, FrequencyIndex]:
        # Record decoding is the hot boundary between stored bytes and
        # the pipeline: corruption anywhere inside (index tables, codec
        # streams, bit planes) must surface as a typed CorruptionError,
        # not whatever IndexError/struct noise the damage provokes.
        try:
            t0 = time.perf_counter() if _OBS_STATE.enabled else 0.0
            if not record:
                raise TruncationError("empty chunk record")
            if record[0] & _CHUNK_FLAG_PLANNED:
                # A planned record carries its own pipeline knobs; the
                # import is deferred because repro.planner builds on
                # this module.
                from repro.planner.record import decode_planned_record

                chunk, index = decode_planned_record(
                    record, word_bytes, use_checksum, arena
                )
            else:
                chunk, index = PrimacyCompressor._decode_record(
                    record,
                    partitioner,
                    codec,
                    word_bytes,
                    high_bytes,
                    linearization,
                    use_checksum,
                    current_index,
                    arena,
                )
            if _OBS_STATE.enabled:
                seconds = time.perf_counter() - t0
                reg = _obs_metrics.registry()
                reg.counter("primacy.decompress.chunks").inc()
                reg.counter("primacy.decompress.bytes_in").inc(len(record))
                reg.counter("primacy.decompress.bytes_out").inc(len(chunk))
                _obs_trace.record_span("primacy.decompress_chunk", seconds)
            return chunk, index
        except CodecError:
            raise
        except Exception as exc:
            raise CorruptionError(
                f"undecodable chunk record: {type(exc).__name__}: {exc}"
            ) from exc

    @staticmethod
    def _decode_record(
        record: bytes,
        partitioner: IsobarPartitioner,
        codec: Codec,
        word_bytes: int,
        high_bytes: int,
        linearization: Linearization,
        use_checksum: bool,
        current_index: FrequencyIndex | None,
        arena: ScratchArena,
    ) -> tuple[bytes, FrequencyIndex]:
        if not record:
            raise TruncationError("empty chunk record")
        flags = record[0]
        pos = 1
        n_values, pos = decode_uvarint(record, pos)
        if flags & _CHUNK_FLAG_INLINE_INDEX:
            index, pos = FrequencyIndex.deserialize(record, pos)
        else:
            if current_index is None:
                raise CorruptionError(
                    "chunk reuses an index but none precedes it"
                )
            n_ext, pos = decode_uvarint(record, pos)
            itemsize = 4 if high_bytes > 2 else 2
            width = ">u4" if high_bytes > 2 else ">u2"
            raw = record[pos : pos + n_ext * itemsize]
            if len(raw) != n_ext * itemsize:
                raise TruncationError("truncated index extension")
            pos += n_ext * itemsize
            extension = np.frombuffer(raw, dtype=width).astype(np.uint32)
            index = current_index.extended(extension)
        high_len, pos = decode_uvarint(record, pos)
        if len(record) - pos < high_len:
            raise TruncationError(
                f"chunk record high-order payload truncated (need "
                f"{high_len} bytes at {pos}, have {len(record) - pos})"
            )
        high_compressed = bytes(record[pos : pos + high_len])
        pos += high_len
        low_len, pos = decode_uvarint(record, pos)
        if len(record) - pos < low_len:
            raise TruncationError(
                f"chunk record low-order payload truncated (need "
                f"{low_len} bytes at {pos}, have {len(record) - pos})"
            )
        low_blob = bytes(record[pos : pos + low_len])
        pos += low_len

        id_stream = codec.decompress(high_compressed)
        # IDs straight off the stream, sequence bytes scattered into a
        # raw-layout output buffer, and the ISOBAR matrix decompressed
        # directly into the same buffer's low-order columns -- one
        # owning copy at the end.
        ids = ids_from_stream(
            id_stream, n_values, high_bytes, linearization, arena
        )
        if ids.size and int(ids.max()) >= index.n_unique:
            raise CodecError("ID out of index range")
        seqs = index.values[ids]
        if high_bytes > word_bytes:
            raise CorruptionError("high-order width exceeds word width")
        raw_out = arena.array("dec_raw", (n_values, word_bytes))
        fill_high_from_seqs(seqs, high_bytes, raw_out, arena)
        partitioner.decompress(
            low_blob, out=low_matrix_view(raw_out, high_bytes)
        )
        chunk = raw_out.tobytes()
        if use_checksum:
            if len(record) - pos != 4:
                raise CorruptionError(
                    f"chunk record ends with {len(record) - pos} bytes "
                    "where the 4-byte checksum belongs"
                )
            stored = int.from_bytes(record[pos : pos + 4], "big")
            if adler32(chunk) != stored:
                raise CorruptionError("chunk checksum mismatch")
        elif pos != len(record):
            raise CorruptionError(
                f"{len(record) - pos} bytes of trailing garbage "
                "in chunk record"
            )
        return chunk, index


def chunk_record_index_section(
    record: bytes, high_bytes: int
) -> tuple[bool, FrequencyIndex | np.ndarray, int]:
    """Parse only the index section of a chunk record (cheap).

    Random access into a chunked stream needs the index *in effect* at a
    chunk without decompressing its predecessors.  This helper extracts,
    from a record, either its inline :class:`FrequencyIndex` or the
    extension values it appended to the inherited index -- without
    touching the compressed payloads.

    Returns ``(inline, index_or_extension, n_values)``.
    """
    try:
        if not record:
            raise TruncationError("empty chunk record")
        flags = record[0]
        if flags & _CHUNK_FLAG_PLANNED:
            # Planned records carry their own split width; parse the
            # wrapper and recurse into the inner record with it.
            from repro.planner.record import parse_planned_header

            _codec, inner_high, _lin, pos = parse_planned_header(record)
            return chunk_record_index_section(
                bytes(record[pos:]), inner_high
            )
        pos = 1
        n_values, pos = decode_uvarint(record, pos)
        if flags & _CHUNK_FLAG_INLINE_INDEX:
            index, _ = FrequencyIndex.deserialize(record, pos)
            return True, index, n_values
        n_ext, pos = decode_uvarint(record, pos)
        itemsize = 4 if high_bytes > 2 else 2
        width = ">u4" if high_bytes > 2 else ">u2"
        raw = record[pos : pos + n_ext * itemsize]
        if len(raw) != n_ext * itemsize:
            raise TruncationError("truncated index extension")
        extension = np.frombuffer(raw, dtype=width).astype(np.uint32)
        return False, extension, n_values
    except CodecError:
        raise
    except Exception as exc:
        raise CorruptionError(
            f"undecodable chunk index section: {type(exc).__name__}: {exc}"
        ) from exc


@register_codec
class PrimacyCodec(Codec):
    """Byte-codec adapter around :class:`PrimacyCompressor`.

    Lets PRIMACY drop into any place a plain codec fits (benchmark
    harness, CLI, the I/O pipeline simulator).
    """

    name = "primacy"
    # last_stats is per-call state; a shared cached instance would leak
    # one caller's stats into another.
    cacheable = False

    def __init__(self, config: PrimacyConfig | None = None, **kwargs) -> None:
        if config is None:
            config = PrimacyConfig(**kwargs)
        elif kwargs:
            raise ValueError("pass either a config or keyword options, not both")
        self.compressor = PrimacyCompressor(config)
        self.last_stats: PrimacyStats | None = None

    def compress(self, data: bytes) -> bytes:
        """Compress ``data`` into a self-describing stream (Codec API)."""
        out, stats = self.compressor.compress(data)
        self.last_stats = stats
        return out

    def decompress(self, data: bytes) -> bytes:
        """Invert :meth:`compress` exactly (Codec API)."""
        return self.compressor.decompress(data)
