"""Sharded PRIF archives: parallel multi-writer packing, O(1) range reads.

A *sharded archive* (format ``PRAC``, v2 of the storage layout) is a
directory of N independent PRIF shards plus a CRC-sealed manifest
catalog::

    archive/
        shard-0000.prif     ordinary PRIF files -- each one opens with
        shard-0001.prif     PrimacyFileReader, fscks, and salvages on
        ...                 its own
        catalog.prac        manifest: config + shard table + global
                            chunk table, sealed by the v2 trailer
                            (footer length + CRC-32 + "PRIE")

The catalog maps every *global* chunk index to ``(shard, offset,
length, n_values)``, so ``read_chunk(i)`` opens only the covering shard
and seeks straight to the record -- no shard footer parse, no scan.
Chunks are distributed round-robin by the writer, but readers trust
only the catalog, so a :func:`compact_archive` rewrite may re-balance
freely.

Write-side crash safety composes from the existing primitives: every
shard is staged and published through the atomic fsync+rename path, and
the catalog is sealed *last*.  A writer killed at any point leaves
either a complete archive or a directory without a catalog -- never a
catalog describing bytes that are not there.  Shards that were already
published remain individually salvageable
(:func:`repro.storage.verify.salvage_archive`).

Archives require the ``PER_CHUNK`` index policy: every record carries
its own inline index, which is what makes a record decodable straight
off a catalog seek (and movable verbatim by ``compact``).
"""

from __future__ import annotations

import io
import os
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.compressors.base import CorruptionError, TruncationError, checked_uvarint
from repro.core.idmap import IndexReusePolicy
from repro.core.primacy import (
    PrimacyCompressor,
    PrimacyConfig,
    PrimacyStats,
)
from repro.obs import metrics as _obs_metrics
from repro.obs import trace as _obs_trace
from repro.obs.runtime import STATE as _OBS_STATE
from repro.storage.format import (
    TRAILER_BYTES,
    ChunkEntry,
    checked_bytes,
    decode_header,
    decode_trailer,
    encode_footer,
    encode_header,
    encode_trailer,
    require_storable,
)
from repro.storage.writer import PrimacyFileWriter
from repro.util.checksum import crc32
from repro.util.durable import AtomicFile
from repro.util.varint import encode_uvarint

__all__ = [
    "CATALOG_MAGIC",
    "CATALOG_VERSION",
    "CATALOG_NAME",
    "ShardInfo",
    "CatalogEntry",
    "ArchiveManifest",
    "shard_name",
    "encode_catalog_header",
    "decode_catalog_header",
    "encode_catalog_table",
    "decode_catalog_table",
    "encode_catalog",
    "decode_catalog",
    "read_catalog",
    "ShardedArchiveWriter",
    "ShardedArchiveReader",
    "compact_archive",
]

CATALOG_MAGIC = b"PRAC"
CATALOG_VERSION = 1

#: Filename of the manifest inside the archive directory.
CATALOG_NAME = "catalog.prac"

#: A catalog-table row is at least shard + offset + length + n_values
#: = 4 bytes; used to reject absurd chunk counts before looping.
_MIN_ENTRY_BYTES = 4


def shard_name(shard_id: int) -> str:
    """Canonical filename for shard ``shard_id`` (writer convention)."""
    return f"shard-{shard_id:04d}.prif"


@dataclass(frozen=True)
class ShardInfo:
    """One shard file as the catalog describes it."""

    name: str  # filename inside the archive directory
    file_bytes: int  # committed size, cross-checked by fsck
    n_chunks: int  # chunks the catalog places in this shard


@dataclass(frozen=True)
class CatalogEntry:
    """One global chunk: where its record lives."""

    shard: int  # index into ArchiveManifest.shards
    offset: int  # absolute byte offset of the record in the shard file
    length: int  # record length in bytes
    n_values: int  # values held by this chunk


@dataclass
class ArchiveManifest:
    """Decoded catalog: pipeline config + shard table + chunk table."""

    config: PrimacyConfig
    planned: bool = False
    shards: tuple[ShardInfo, ...] = field(default=())
    entries: tuple[CatalogEntry, ...] = field(default=())
    tail: bytes = b""
    total_bytes: int = 0

    @property
    def n_values(self) -> int:
        """Number of values covered."""
        return sum(e.n_values for e in self.entries)

    @property
    def n_chunks(self) -> int:
        """Number of global chunks."""
        return len(self.entries)


# --------------------------------------------------------------------- #
# encoding / decoding                                                    #
# --------------------------------------------------------------------- #


def encode_catalog_header(
    config: PrimacyConfig, planned: bool, shards: list[ShardInfo]
) -> bytes:
    """Serialize the catalog header (magic, config, shard table)."""
    out = bytearray()
    out += CATALOG_MAGIC
    out.append(CATALOG_VERSION)
    out.append(1 if planned else 0)
    embedded = encode_header(config, planned=planned)
    out += encode_uvarint(len(embedded))
    out += embedded
    out += encode_uvarint(len(shards))
    for shard in shards:
        name = shard.name.encode("ascii")
        out += encode_uvarint(len(name))
        out += name
        out += encode_uvarint(shard.file_bytes)
        out += encode_uvarint(shard.n_chunks)
    return bytes(out)


def decode_catalog_header(
    data: bytes,
) -> tuple[PrimacyConfig, bool, list[ShardInfo], int]:
    """Parse a catalog header; returns ``(config, planned, shards, pos)``."""
    if len(data) < 6:
        raise TruncationError(
            "PRAC header shorter than its fixed preamble",
            region="catalog-header",
            offset=len(data),
        )
    if data[:4] != CATALOG_MAGIC:
        raise CorruptionError(
            "not a PRAC catalog", region="catalog-header", offset=0
        )
    if data[4] != CATALOG_VERSION:
        raise CorruptionError(
            f"unsupported PRAC version {data[4]}",
            region="catalog-header",
            offset=4,
        )
    flags = data[5]
    if flags & ~0x01:
        raise CorruptionError(
            f"unknown PRAC header flags 0x{flags:02x}",
            region="catalog-header",
            offset=5,
        )
    planned = bool(flags & 1)
    pos = 6
    embedded_len, pos = checked_uvarint(
        data, pos, "embedded config length", "catalog-header"
    )
    embedded, pos = checked_bytes(
        data, pos, embedded_len, "embedded config", "catalog-header"
    )
    config, consumed, embedded_planned = decode_header(embedded)
    if consumed != embedded_len:
        raise CorruptionError(
            f"{embedded_len - consumed} bytes of trailing garbage in the "
            "embedded config header",
            region="catalog-header",
        )
    if embedded_planned != planned:
        raise CorruptionError(
            "catalog planned flag disagrees with the embedded config",
            region="catalog-header",
        )
    n_shards, pos = checked_uvarint(
        data, pos, "shard count", "catalog-header"
    )
    if n_shards < 1:
        raise CorruptionError(
            "catalog names zero shards", region="catalog-header"
        )
    if n_shards * 3 > len(data):
        raise CorruptionError(
            f"shard count {n_shards} cannot fit in a "
            f"{len(data)}-byte header",
            region="catalog-header",
        )
    shards: list[ShardInfo] = []
    for i in range(n_shards):
        name_len, pos = checked_uvarint(
            data, pos, f"shard {i} name length", "catalog-header"
        )
        raw_name, pos = checked_bytes(
            data, pos, name_len, f"shard {i} name", "catalog-header"
        )
        file_bytes, pos = checked_uvarint(
            data, pos, f"shard {i} file size", "catalog-header"
        )
        n_chunks, pos = checked_uvarint(
            data, pos, f"shard {i} chunk count", "catalog-header"
        )
        try:
            name = raw_name.decode("ascii")
        except UnicodeDecodeError as exc:
            raise CorruptionError(
                f"non-ASCII shard name: {exc}", region="catalog-header"
            ) from exc
        if not name or "/" in name or "\\" in name or name.startswith("."):
            # Shard names are joined onto the archive directory; a name
            # that escapes it is an attack, not a format variant.
            raise CorruptionError(
                f"unsafe shard name {name!r}", region="catalog-header"
            )
        shards.append(
            ShardInfo(name=name, file_bytes=file_bytes, n_chunks=n_chunks)
        )
    return config, planned, shards, pos


def encode_catalog_table(
    entries: list[CatalogEntry], tail: bytes, total_bytes: int
) -> bytes:
    """Serialize the global chunk table (+ tail and total length)."""
    out = bytearray()
    out += encode_uvarint(len(entries))
    for e in entries:
        out += encode_uvarint(e.shard)
        out += encode_uvarint(e.offset)
        out += encode_uvarint(e.length)
        out += encode_uvarint(e.n_values)
    out += encode_uvarint(len(tail))
    out += tail
    out += encode_uvarint(total_bytes)
    return bytes(out)


def decode_catalog_table(
    table: bytes,
) -> tuple[list[CatalogEntry], bytes, int]:
    """Parse the chunk table; returns ``(entries, tail, total_bytes)``."""
    pos = 0
    n_entries, pos = checked_uvarint(table, pos, "chunk count", "catalog")
    if n_entries * _MIN_ENTRY_BYTES > len(table):
        raise CorruptionError(
            f"chunk count {n_entries} cannot fit in a "
            f"{len(table)}-byte catalog table",
            region="catalog",
            offset=0,
        )
    entries: list[CatalogEntry] = []
    for i in range(n_entries):
        shard, pos = checked_uvarint(table, pos, f"chunk {i} shard", "catalog")
        offset, pos = checked_uvarint(
            table, pos, f"chunk {i} offset", "catalog"
        )
        length, pos = checked_uvarint(
            table, pos, f"chunk {i} length", "catalog"
        )
        n_values, pos = checked_uvarint(
            table, pos, f"chunk {i} value count", "catalog"
        )
        if length < 1:
            raise CorruptionError(
                f"chunk {i} has zero-length record", region="catalog"
            )
        if n_values < 1:
            raise CorruptionError(
                f"chunk {i} covers zero values", region="catalog"
            )
        entries.append(
            CatalogEntry(
                shard=shard, offset=offset, length=length, n_values=n_values
            )
        )
    tail_len, pos = checked_uvarint(table, pos, "tail length", "catalog")
    tail, pos = checked_bytes(table, pos, tail_len, "catalog tail", "catalog")
    total_bytes, pos = checked_uvarint(table, pos, "total length", "catalog")
    if pos != len(table):
        raise CorruptionError(
            f"{len(table) - pos} bytes of trailing garbage in PRAC table",
            region="catalog",
            offset=pos,
        )
    return entries, tail, total_bytes


def encode_catalog(manifest: ArchiveManifest) -> bytes:
    """Serialize a complete catalog file (header + table + trailer)."""
    header = encode_catalog_header(
        manifest.config, manifest.planned, list(manifest.shards)
    )
    table = encode_catalog_table(
        list(manifest.entries), manifest.tail, manifest.total_bytes
    )
    return header + table + encode_trailer(header, table)


def decode_catalog(data: bytes) -> ArchiveManifest:
    """Parse and validate a complete catalog file."""
    if len(data) < TRAILER_BYTES + 6:
        raise TruncationError(
            "file too small to be a PRAC catalog",
            region="catalog-trailer",
            offset=len(data),
        )
    table_len, metadata_crc = decode_trailer(data[-TRAILER_BYTES:])
    header_len = len(data) - TRAILER_BYTES - table_len
    if header_len < 6:
        raise CorruptionError(
            f"PRAC table length {table_len} exceeds the file",
            region="catalog-trailer",
        )
    header = bytes(data[:header_len])
    table = bytes(data[header_len : header_len + table_len])
    if crc32(table, value=crc32(header)) != metadata_crc:
        raise CorruptionError(
            "PRAC catalog checksum mismatch (header or table corrupt)",
            region="catalog",
        )
    config, planned, shards, pos = decode_catalog_header(header)
    if pos != header_len:
        raise CorruptionError(
            f"{header_len - pos} bytes of trailing garbage in PRAC header",
            region="catalog-header",
            offset=pos,
        )
    entries, tail, total_bytes = decode_catalog_table(table)
    manifest = ArchiveManifest(
        config=config,
        planned=planned,
        shards=tuple(shards),
        entries=tuple(entries),
        tail=tail,
        total_bytes=total_bytes,
    )
    _validate_manifest(manifest)
    return manifest


def _validate_manifest(manifest: ArchiveManifest) -> None:
    """Cross-check the chunk table against the shard table."""
    if manifest.config.index_policy is not IndexReusePolicy.PER_CHUNK:
        raise CorruptionError(
            "sharded archives require the per-chunk index policy "
            f"(catalog says {manifest.config.index_policy.value!r})",
            region="catalog-header",
        )
    per_shard_count = [0] * len(manifest.shards)
    per_shard_end = [0] * len(manifest.shards)
    for i, e in enumerate(manifest.entries):
        if e.shard >= len(manifest.shards):
            raise CorruptionError(
                f"chunk {i} names shard {e.shard} but the catalog has "
                f"{len(manifest.shards)}",
                region="catalog",
            )
        if e.offset < per_shard_end[e.shard]:
            raise CorruptionError(
                f"chunk {i} overlaps the previous chunk in shard {e.shard}",
                region="catalog",
            )
        end = e.offset + e.length
        if end > manifest.shards[e.shard].file_bytes:
            raise CorruptionError(
                f"chunk {i} extends past the end of shard {e.shard} "
                f"(ends {end}, shard is "
                f"{manifest.shards[e.shard].file_bytes} bytes)",
                region="catalog",
            )
        per_shard_end[e.shard] = end
        per_shard_count[e.shard] += 1
    for sid, shard in enumerate(manifest.shards):
        if per_shard_count[sid] != shard.n_chunks:
            raise CorruptionError(
                f"shard {sid} table says {shard.n_chunks} chunks but the "
                f"chunk table places {per_shard_count[sid]} there",
                region="catalog",
            )
    covered = manifest.n_values * manifest.config.word_bytes
    if covered + len(manifest.tail) != manifest.total_bytes:
        raise CorruptionError(
            f"chunk table covers {covered} bytes + {len(manifest.tail)} "
            f"tail but total length says {manifest.total_bytes}",
            region="catalog",
        )


def read_catalog(directory: str | os.PathLike) -> ArchiveManifest:
    """Load and validate ``catalog.prac`` from an archive directory."""
    path = Path(directory) / CATALOG_NAME
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        raise TruncationError(
            f"archive is unsealed: {CATALOG_NAME} is missing "
            f"(crashed writer, or not an archive directory)",
            region="catalog",
        ) from None
    manifest = decode_catalog(data)
    if _OBS_STATE.enabled:
        reg = _obs_metrics.registry()
        reg.counter("catalog.read.manifest_bytes").inc(len(data))
        reg.counter("catalog.read.opens").inc()
    return manifest


# --------------------------------------------------------------------- #
# writer                                                                 #
# --------------------------------------------------------------------- #


class ShardedArchiveWriter:
    """Write a sharded PRIF archive with K concurrent shard writers.

    Chunks are cut in arrival order and dealt round-robin to ``shards``
    per-shard :class:`~repro.storage.writer.PrimacyFileWriter`\\ s, all
    fed through one shared :class:`~repro.parallel.ParallelEngine`:
    chunk *g* compresses in a worker while earlier records of *every*
    shard are hitting their files.  Each shard is an ordinary PRIF file
    staged and published atomically; :meth:`close` commits the shards
    in order and seals the catalog last, so a crash at any point leaves
    a salvageable, never-corrupt directory.

    Parameters
    ----------
    directory:
        Archive directory (created if missing; must not already hold a
        catalog).
    config:
        Pipeline configuration (``PER_CHUNK`` index policy required --
        records must be self-contained for direct catalog seeks).
    shards:
        Number of shard files (>= 1).
    workers:
        Engine pool size; defaults to ``shards`` so each shard writer
        effectively owns a worker.  ``1`` runs inline.
    engine:
        Share an existing engine (the caller owns its lifetime).
    planner:
        A :class:`repro.planner.PlannerConfig` instead of ``config``:
        records are planner-written (self-describing), the catalog
        carries the planner's base config plus the planned flag, and
        per-chunk decisions accumulate in :attr:`decisions`.
    durable:
        Stage shards and catalog in ``*.tmp`` and publish with
        fsync+rename (default on).
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        config: PrimacyConfig | None = None,
        *,
        shards: int = 4,
        workers: int | None = None,
        engine=None,
        planner=None,
        durable: bool = True,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if planner is not None and config is not None:
            raise ValueError("pass config= or planner=, not both")
        self.planner = planner
        self.decisions: list = []
        self.config = planner.base if planner is not None else (
            config or PrimacyConfig()
        )
        require_storable(self.config)
        if self.config.index_policy is not IndexReusePolicy.PER_CHUNK:
            raise ValueError(
                "sharded archives require the PER_CHUNK index policy; "
                "catalog seeks need self-contained records"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        if (self.directory / CATALOG_NAME).exists():
            raise ValueError(
                f"{self.directory} already holds a sealed archive"
            )
        self.n_shards = shards
        self._durable = durable
        self._engine = engine
        self._owns_engine = False
        if engine is None:
            from repro.parallel.engine import ParallelEngine

            self._engine = ParallelEngine(
                self.config, workers=workers if workers is not None else shards
            )
            self._owns_engine = True
        self._writers = [
            PrimacyFileWriter(
                self.directory / shard_name(sid),
                config=None if planner is not None else self.config,
                planner=planner,
                engine=self._engine,
                durable=durable,
            )
            for sid in range(shards)
        ]
        self._buffer = bytearray()
        self._chunk_shard: list[int] = []  # shard id per global chunk
        self._next_shard = 0
        self._total_bytes = 0
        self._closed = False
        self.stats = PrimacyStats()

    # ------------------------------------------------------------------

    def write(self, data: bytes | bytearray | memoryview) -> None:
        """Append raw value bytes; full chunks are dealt to shards eagerly."""
        if self._closed:
            raise ValueError("writer is closed")
        self._buffer += data
        self._total_bytes += len(data)
        chunk_bytes = self.config.chunk_bytes
        while len(self._buffer) >= chunk_bytes:
            self._dispatch(chunk_bytes)

    def _dispatch(self, length: int) -> None:
        """Feed the first ``length`` buffered bytes to the next shard."""
        sid = self._next_shard
        self._next_shard = (sid + 1) % self.n_shards
        with memoryview(self._buffer) as view:
            self._writers[sid].write(view[:length])
        del self._buffer[:length]
        self._chunk_shard.append(sid)
        if _OBS_STATE.enabled:
            reg = _obs_metrics.registry()
            reg.counter("catalog.write.chunks").inc()
            reg.counter("catalog.write.bytes", shard=str(sid)).inc(length)

    def close(self) -> None:
        """Flush, commit every shard in order, then seal the catalog.

        The catalog is the publication point of the *archive*: readers
        refuse a directory without one, so a crash anywhere before the
        final rename leaves an unsealed (but per-shard salvageable)
        directory, never a lying one.
        """
        if self._closed:
            return
        word = self.config.word_bytes
        usable = len(self._buffer) - (len(self._buffer) % word)
        if usable:
            self._dispatch(usable)
        tail = bytes(self._buffer)
        del self._buffer[:]
        shard_entries = []
        for sid, writer in enumerate(self._writers):
            t0 = time.perf_counter() if _OBS_STATE.enabled else 0.0
            writer.close()
            shard_entries.append(writer.chunk_entries())
            for chunk_stats in writer.stats.chunks:
                self.stats.add(chunk_stats)
            self.decisions.extend(writer.decisions)
            if _OBS_STATE.enabled:
                reg = _obs_metrics.registry()
                reg.counter(
                    "catalog.write.seconds", shard=str(sid)
                ).inc(time.perf_counter() - t0)
                _obs_trace.record_span(
                    "catalog.commit_shard", time.perf_counter() - t0
                )
        if self._owns_engine:
            self._engine.close()
        # Global chunk order interleaves the per-shard tables exactly as
        # the round-robin dealt them.
        cursor = [0] * self.n_shards
        entries: list[CatalogEntry] = []
        for sid in self._chunk_shard:
            entry = shard_entries[sid][cursor[sid]]
            cursor[sid] += 1
            entries.append(
                CatalogEntry(
                    shard=sid,
                    offset=entry.offset,
                    length=entry.length,
                    n_values=entry.n_values,
                )
            )
        shards = [
            ShardInfo(
                name=shard_name(sid),
                file_bytes=(self.directory / shard_name(sid)).stat().st_size,
                n_chunks=len(shard_entries[sid]),
            )
            for sid in range(self.n_shards)
        ]
        self.manifest = ArchiveManifest(
            config=self.config,
            planned=self.planner is not None,
            shards=tuple(shards),
            entries=tuple(entries),
            tail=tail,
            total_bytes=self._total_bytes,
        )
        blob = encode_catalog(self.manifest)
        catalog_path = self.directory / CATALOG_NAME
        if self._durable:
            out = AtomicFile(catalog_path)
            try:
                out.write(blob)
            except BaseException:
                out.discard()
                raise
            out.commit()
        else:
            catalog_path.write_bytes(blob)
        self.stats.container_bytes = (
            sum(s.file_bytes for s in shards) + len(blob)
        )
        self.stats.original_bytes = self._total_bytes
        self._closed = True

    def abort(self) -> None:
        """Abandon the archive: discard staged shards, seal nothing."""
        if self._closed:
            return
        for writer in self._writers:
            writer.abort()
        if self._owns_engine:
            self._engine.close()
        self._closed = True

    # ------------------------------------------------------------------

    def __enter__(self) -> "ShardedArchiveWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Sealing after an exception would publish an archive that
        # *looks* complete; abort instead (mirrors PrimacyFileWriter).
        if exc_type is not None:
            self.abort()
        else:
            self.close()

    @property
    def n_chunks(self) -> int:
        """Chunks dealt so far (written or still compressing)."""
        return len(self._chunk_shard)


# --------------------------------------------------------------------- #
# reader                                                                 #
# --------------------------------------------------------------------- #


class ShardedArchiveReader:
    """Random access into a sharded archive via its catalog.

    ``read_chunk(i)`` / ``read_range(lo, hi)`` open only the covering
    shard(s) and seek directly by catalog offsets -- the manifest is the
    single metadata read of the whole session.  Open shard handles are
    kept in an LRU (``max_open_shards``) so chunk-sequential scans over
    wide archives do not thrash file descriptors.
    """

    def __init__(
        self, directory: str | os.PathLike, *, max_open_shards: int = 8
    ) -> None:
        if max_open_shards < 1:
            raise ValueError("max_open_shards must be >= 1")
        self.directory = Path(directory)
        self.manifest = read_catalog(self.directory)
        try:
            self._compressor = PrimacyCompressor(self.manifest.config)
        except (KeyError, ValueError) as exc:
            raise CorruptionError(
                f"PRAC catalog names an unusable pipeline: {exc}",
                region="catalog-header",
            ) from exc
        counts = [e.n_values for e in self.manifest.entries]
        self._cum_list: list[int] = np.concatenate(
            [[0], np.cumsum(counts, dtype=np.int64)]
        ).tolist()
        self._max_open = max_open_shards
        self._handles: "OrderedDict[int, io.BufferedReader]" = OrderedDict()

    # ------------------------------------------------------------------

    @property
    def n_chunks(self) -> int:
        """Number of global chunks."""
        return len(self.manifest.entries)

    @property
    def n_values(self) -> int:
        """Number of values covered."""
        return int(self._cum_list[-1])

    def _shard_handle(self, shard_id: int) -> io.BufferedReader:
        handle = self._handles.get(shard_id)
        reg = _obs_metrics.registry() if _OBS_STATE.enabled else None
        if handle is not None:
            self._handles.move_to_end(shard_id)
            if reg is not None:
                reg.counter("catalog.handles.hit").inc()
            return handle
        if reg is not None:
            reg.counter("catalog.handles.miss").inc()
            reg.counter("catalog.shards.opened").inc()
        path = self.directory / self.manifest.shards[shard_id].name
        try:
            handle = open(path, "rb")
        except FileNotFoundError:
            raise CorruptionError(
                f"catalog names shard {path.name} but the file is missing",
                region=f"shard[{shard_id}]",
            ) from None
        self._handles[shard_id] = handle
        if len(self._handles) > self._max_open:
            _evicted, old = self._handles.popitem(last=False)
            old.close()
            if reg is not None:
                reg.counter("catalog.handles.evicted").inc()
        return handle

    def read_chunk(self, chunk_id: int) -> bytes:
        """Decompress one global chunk; touches the covering shard only."""
        if not 0 <= chunk_id < self.n_chunks:
            raise ValueError(
                f"chunk {chunk_id} out of range [0, {self.n_chunks})"
            )
        t0 = time.perf_counter() if _OBS_STATE.enabled else 0.0
        entry = self.manifest.entries[chunk_id]
        fh = self._shard_handle(entry.shard)
        fh.seek(entry.offset)
        record = fh.read(entry.length)
        if len(record) != entry.length:
            raise TruncationError(
                f"chunk {chunk_id} record truncated in shard {entry.shard}",
                region=f"shard[{entry.shard}]",
                offset=entry.offset,
            )
        try:
            chunk, _ = self._compressor.decompress_chunk(record, None)
        except (CorruptionError, TruncationError) as exc:
            if exc.region is None:
                exc.region = f"chunk[{chunk_id}]"
                exc.offset = entry.offset
            raise
        if len(chunk) != entry.n_values * self.manifest.config.word_bytes:
            raise CorruptionError(
                f"chunk {chunk_id} decoded to {len(chunk)} bytes but the "
                f"catalog promises {entry.n_values} values",
                region=f"chunk[{chunk_id}]",
                offset=entry.offset,
            )
        if _OBS_STATE.enabled:
            reg = _obs_metrics.registry()
            reg.counter("catalog.read.chunks").inc()
            reg.counter("catalog.read.bytes_touched").inc(len(record))
            reg.counter("catalog.read.bytes_returned").inc(len(chunk))
            _obs_trace.record_span(
                "catalog.read_chunk", time.perf_counter() - t0
            )
        return chunk

    def read_range(self, lo: int, hi: int) -> bytes:
        """Decompress global chunks ``[lo, hi)``, concatenated."""
        if lo < 0 or hi < lo or hi > self.n_chunks:
            raise ValueError(
                f"chunk range [{lo}, {hi}) out of bounds "
                f"[0, {self.n_chunks})"
            )
        return b"".join(self.read_chunk(i) for i in range(lo, hi))

    def read_values(self, start: int, count: int) -> bytes:
        """Decompress values ``[start, start + count)`` only."""
        from bisect import bisect_right

        if start < 0 or count < 0:
            raise ValueError("start and count must be non-negative")
        if start + count > self.n_values:
            raise ValueError("value range beyond end of archive")
        if count == 0:
            return b""
        word = self.manifest.config.word_bytes
        first = bisect_right(self._cum_list, start) - 1
        last = bisect_right(self._cum_list, start + count - 1) - 1
        blob = self.read_range(first, last + 1)
        offset = (start - self._cum_list[first]) * word
        return blob[offset : offset + count * word]

    def read_all(self) -> bytes:
        """Decompress the whole archive."""
        out = self.read_range(0, self.n_chunks) + self.manifest.tail
        if len(out) != self.manifest.total_bytes:
            raise CorruptionError("PRAC archive length mismatch")
        return out

    def close(self) -> None:
        """Close every open shard handle."""
        while self._handles:
            _sid, handle = self._handles.popitem(last=False)
            handle.close()

    def __enter__(self) -> "ShardedArchiveReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# --------------------------------------------------------------------- #
# compaction                                                             #
# --------------------------------------------------------------------- #


class _RawShardWriter:
    """Append pre-compressed records to a new PRIF shard (compact path).

    Records under the ``PER_CHUNK`` policy are self-contained, so
    compaction moves them verbatim -- header, body framing, footer, and
    trailer are rebuilt, the payload bytes are not touched.
    """

    def __init__(
        self, path: Path, config: PrimacyConfig, planned: bool
    ) -> None:
        self._atomic = AtomicFile(path)
        self._header = encode_header(config, planned=planned)
        self._atomic.write(self._header)
        self._pos = len(self._header)
        self._word = config.word_bytes
        self.entries: list = []

    def append(self, record: bytes, n_values: int) -> None:
        """Write one verbatim record; returns nothing (entry recorded)."""
        prefix = encode_uvarint(len(record))
        self._atomic.write(prefix)
        self._atomic.write(record)
        self.entries.append(
            ChunkEntry(
                offset=self._pos + len(prefix),
                length=len(record),
                n_values=n_values,
                inline_index=True,
                index_base=len(self.entries),
            )
        )
        self._pos += len(prefix) + len(record)

    def commit(self) -> None:
        """Write footer + trailer and atomically publish the shard."""
        total = sum(e.n_values for e in self.entries) * self._word
        footer = encode_footer(self.entries, b"", total)
        self._atomic.write(footer)
        self._atomic.write(encode_trailer(self._header, footer))
        self._atomic.commit()

    def discard(self) -> None:
        """Drop the staged shard."""
        self._atomic.discard()


def compact_archive(
    source: str | os.PathLike,
    dest: str | os.PathLike,
    *,
    shards: int | None = None,
) -> ArchiveManifest:
    """Rewrite an archive into a balanced layout with ``shards`` shards.

    Records are copied verbatim (no recompression): the catalog is the
    authority for record extents and value counts, so small or sparse
    shards fold into an even round-robin layout at disk speed.  The new
    catalog seals last, exactly like a fresh pack.
    """
    source = Path(source)
    dest = Path(dest)
    manifest = read_catalog(source)
    if shards is None:
        shards = len(manifest.shards)
    if shards < 1:
        raise ValueError("shards must be >= 1")
    if dest.resolve() == source.resolve():
        raise ValueError("compact requires a destination != source")
    dest.mkdir(parents=True, exist_ok=True)
    if (dest / CATALOG_NAME).exists():
        raise ValueError(f"{dest} already holds a sealed archive")
    writers = [
        _RawShardWriter(
            dest / shard_name(sid), manifest.config, manifest.planned
        )
        for sid in range(shards)
    ]
    entries: list[CatalogEntry] = []
    try:
        with ShardedArchiveReader(source) as reader:
            for gid, entry in enumerate(manifest.entries):
                fh = reader._shard_handle(entry.shard)
                fh.seek(entry.offset)
                record = fh.read(entry.length)
                if len(record) != entry.length:
                    raise TruncationError(
                        f"chunk {gid} record truncated in shard "
                        f"{entry.shard}",
                        region=f"shard[{entry.shard}]",
                        offset=entry.offset,
                    )
                sid = gid % shards
                writers[sid].append(record, entry.n_values)
                new = writers[sid].entries[-1]
                entries.append(
                    CatalogEntry(
                        shard=sid,
                        offset=new.offset,
                        length=new.length,
                        n_values=new.n_values,
                    )
                )
        for writer in writers:
            writer.commit()
    except BaseException:
        for writer in writers:
            writer.discard()
        raise
    shard_infos = [
        ShardInfo(
            name=shard_name(sid),
            file_bytes=(dest / shard_name(sid)).stat().st_size,
            n_chunks=len(writers[sid].entries),
        )
        for sid in range(shards)
    ]
    new_manifest = ArchiveManifest(
        config=manifest.config,
        planned=manifest.planned,
        shards=tuple(shard_infos),
        entries=tuple(entries),
        tail=manifest.tail,
        total_bytes=manifest.total_bytes,
    )
    blob = encode_catalog(new_manifest)
    out = AtomicFile(dest / CATALOG_NAME)
    try:
        out.write(blob)
    except BaseException:
        out.discard()
        raise
    out.commit()
    return new_manifest
