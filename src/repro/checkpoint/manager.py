"""Checkpoint file manager.

File layout (PRCK)::

    magic "PRCK" | version
    segment*          -- each segment is a complete PRIF stream
                         (header..trailer) for one (step, variable)
    manifest          -- per entry: step, name, dtype str, shape,
                         segment offset, segment length
    manifest length (u64) | CRC-32 of manifest (u32) | magic "PRCE"

Each variable is an independent PRIF stream, so reading one variable at
one step costs exactly that variable's chunks (plus the manifest).  The
writer appends steps as the simulation produces them -- the
checkpoint-every-N-steps pattern the paper targets.

Durability: for path targets the writer stages everything in
``<target>.tmp`` and atomically renames it onto the target at
:meth:`CheckpointWriter.close` (after fsync), so a process killed
mid-checkpoint never leaves a file a reader would accept as complete.
The manifest is sealed with a CRC-32 in the trailer, and every manifest
field is bounds-checked on read -- corruption surfaces as a typed
:class:`CorruptionError` / :class:`TruncationError`, never a bare
``IndexError``.
"""

from __future__ import annotations

import dataclasses
import io
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.compressors.base import (
    CodecError,
    CorruptionError,
    TruncationError,
    checked_uvarint,
)
from repro.core.idmap import IndexReusePolicy
from repro.core.primacy import PrimacyConfig
from repro.obs import metrics as _obs_metrics
from repro.obs import trace as _obs_trace
from repro.obs.runtime import STATE as _OBS_STATE
from repro.storage.format import require_storable
from repro.storage.reader import PrimacyFileReader
from repro.storage.writer import PrimacyFileWriter
from repro.util.checksum import crc32
from repro.util.durable import AtomicFile
from repro.util.varint import encode_uvarint

__all__ = ["CheckpointWriter", "CheckpointReader", "VariableMeta"]

_MAGIC = b"PRCK"
_END_MAGIC = b"PRCE"
_VERSION = 2  # v2: trailer grew a CRC-32 over the manifest (was 12 bytes)
_TRAILER_BYTES = 16

# A manifest entry is at least step + name len + dtype len + ndim +
# offset + length = 6 bytes (with empty strings and zero dims); used to
# reject absurd entry counts before looping on them.
_MIN_ENTRY_BYTES = 6


@dataclass(frozen=True)
class VariableMeta:
    """Manifest entry for one stored variable at one step."""

    step: int
    name: str
    dtype: str
    shape: tuple[int, ...]
    offset: int
    length: int

    @property
    def n_values(self) -> int:
        """Number of values covered."""
        n = 1
        for s in self.shape:
            n *= s
        return n


def _decode_manifest(manifest: bytes, manifest_start: int) -> list[VariableMeta]:
    """Parse the PRCK manifest with full bounds and geometry checks.

    ``manifest_start`` is the absolute offset of the manifest in the
    file, i.e. the exclusive upper bound for every segment extent.
    """
    pos = 0
    n_entries, pos = checked_uvarint(manifest, pos, "manifest entry count", "manifest")
    if n_entries * _MIN_ENTRY_BYTES > len(manifest):
        raise CorruptionError(
            f"entry count {n_entries} cannot fit in a "
            f"{len(manifest)}-byte manifest",
            region="manifest",
            offset=0,
        )
    entries: list[VariableMeta] = []
    for i in range(n_entries):
        step, pos = checked_uvarint(
            manifest, pos, f"manifest entry {i} step", "manifest"
        )
        name_len, pos = checked_uvarint(
            manifest, pos, f"manifest entry {i} name length", "manifest"
        )
        raw_name = manifest[pos : pos + name_len]
        if len(raw_name) != name_len:
            raise TruncationError(
                f"entry {i} name truncated", region="manifest", offset=pos
            )
        pos += name_len
        dtype_len, pos = checked_uvarint(
            manifest, pos, f"manifest entry {i} dtype length", "manifest"
        )
        raw_dtype = manifest[pos : pos + dtype_len]
        if len(raw_dtype) != dtype_len:
            raise TruncationError(
                f"entry {i} dtype truncated", region="manifest", offset=pos
            )
        pos += dtype_len
        try:
            name = raw_name.decode("utf-8")
            dtype = raw_dtype.decode("ascii")
            np.dtype(dtype)
        except (UnicodeDecodeError, TypeError, ValueError) as exc:
            raise CorruptionError(
                f"entry {i} has an undecodable name/dtype: {exc}",
                region="manifest",
            ) from exc
        ndim, pos = checked_uvarint(
            manifest, pos, f"manifest entry {i} rank", "manifest"
        )
        if ndim > 64:
            raise CorruptionError(
                f"entry {i} claims rank {ndim}", region="manifest"
            )
        shape = []
        for d in range(ndim):
            s, pos = checked_uvarint(
                manifest, pos, f"manifest entry {i} dim {d}", "manifest"
            )
            shape.append(s)
        offset, pos = checked_uvarint(
            manifest, pos, f"manifest entry {i} offset", "manifest"
        )
        length, pos = checked_uvarint(
            manifest, pos, f"manifest entry {i} length", "manifest"
        )
        if offset < 5 or offset + length > manifest_start:
            raise CorruptionError(
                f"entry {i} segment [{offset}, {offset + length}) lies "
                f"outside the data region [5, {manifest_start})",
                region="manifest",
            )
        entries.append(
            VariableMeta(
                step=step,
                name=name,
                dtype=dtype,
                shape=tuple(shape),
                offset=offset,
                length=length,
            )
        )
    if pos != len(manifest):
        raise CorruptionError(
            f"{len(manifest) - pos} bytes of trailing garbage in "
            "PRCK manifest",
            region="manifest",
            offset=pos,
        )
    return entries


class CheckpointWriter:
    """Append-only checkpoint writer.

    ``workers``/``engine`` enable pipelined segment writes: every
    variable's chunks are compressed by a shared
    :class:`repro.parallel.ParallelEngine` while earlier records are
    being serialized.  One engine serves all variables -- segments with
    a different word width ride along as per-task config overrides, so
    the pool never restarts between variables or steps.

    ``durable`` (default on, path targets only) stages the checkpoint in
    ``<target>.tmp`` and publishes it with fsync + atomic rename at
    :meth:`close`; individual writes retry transient OS errors
    (``EINTR``/``EAGAIN``) with bounded backoff.
    """

    def __init__(
        self,
        target: str | os.PathLike | io.BufferedIOBase,
        config: PrimacyConfig | None = None,
        *,
        workers: int | None = None,
        engine=None,
        durable: bool = True,
    ) -> None:
        self.config = config or PrimacyConfig()
        require_storable(self.config)
        if (
            engine is not None or workers is not None
        ) and self.config.index_policy is not IndexReusePolicy.PER_CHUNK:
            raise ValueError(
                "pipelined checkpoint writes require the PER_CHUNK index policy"
            )
        self._atomic: AtomicFile | None = None
        if isinstance(target, (str, os.PathLike)):
            if durable:
                self._atomic = AtomicFile(Path(target))
                self._fh = self._atomic
            else:
                self._fh = open(Path(target), "wb")
            self._owns_fh = True
        else:
            self._fh = target
            self._owns_fh = False
        self._engine = engine
        self._owns_engine = False
        if engine is None and workers is not None:
            from repro.parallel.engine import ParallelEngine

            self._engine = ParallelEngine(self.config, workers=workers)
            self._owns_engine = True
        self._entries: list[VariableMeta] = []
        self._closed = False
        self._fh.write(_MAGIC + bytes([_VERSION]))
        self._pos = 5

    def write_step(self, step: int, variables: dict[str, np.ndarray]) -> None:
        """Write all variables of one timestep."""
        for name, array in variables.items():
            self.write_variable(step, name, array)

    def write_variable(self, step: int, name: str, array: np.ndarray) -> None:
        """Compress and append one named array."""
        if self._closed:
            raise ValueError("writer is closed")
        if any(e.step == step and e.name == name for e in self._entries):
            raise ValueError(f"variable {name!r} already written for step {step}")
        array = np.ascontiguousarray(array)
        if array.dtype.kind not in "fiu":
            raise ValueError("only numeric arrays are supported")
        config = self.config
        if array.dtype.itemsize != config.word_bytes:
            # Adjust the pipeline word size to the array's element width.
            high = min(config.high_bytes, max(array.dtype.itemsize - 1, 1))
            config = dataclasses.replace(
                config,
                word_bytes=array.dtype.itemsize,
                high_bytes=high,
            )
        t0 = time.perf_counter() if _OBS_STATE.enabled else 0.0
        segment = io.BytesIO()
        with PrimacyFileWriter(segment, config, engine=self._engine) as writer:
            writer.write(array.astype(array.dtype.newbyteorder("<")).tobytes())
        blob = segment.getvalue()
        self._fh.write(blob)
        if _OBS_STATE.enabled:
            reg = _obs_metrics.registry()
            reg.counter("checkpoint.write.variables").inc()
            reg.counter("checkpoint.write.bytes_in").inc(array.nbytes)
            reg.counter("checkpoint.write.bytes_out").inc(len(blob))
            _obs_trace.record_span(
                "checkpoint.write_variable",
                time.perf_counter() - t0,
                variable=name,
            )
        self._entries.append(
            VariableMeta(
                step=step,
                name=name,
                dtype=str(array.dtype),
                shape=tuple(array.shape),
                offset=self._pos,
                length=len(blob),
            )
        )
        self._pos += len(blob)

    def close(self) -> None:
        """Write the manifest + trailer and publish the file.

        For durable path targets the atomic rename happens only after
        the complete, CRC-sealed manifest is staged and fsynced.
        """
        if self._closed:
            return
        manifest = bytearray()
        manifest += encode_uvarint(len(self._entries))
        for e in self._entries:
            manifest += encode_uvarint(e.step)
            name = e.name.encode("utf-8")
            manifest += encode_uvarint(len(name))
            manifest += name
            dtype = e.dtype.encode("ascii")
            manifest += encode_uvarint(len(dtype))
            manifest += dtype
            manifest += encode_uvarint(len(e.shape))
            for s in e.shape:
                manifest += encode_uvarint(s)
            manifest += encode_uvarint(e.offset)
            manifest += encode_uvarint(e.length)
        self._fh.write(manifest)
        self._fh.write(len(manifest).to_bytes(8, "little"))
        self._fh.write(crc32(bytes(manifest)).to_bytes(4, "little"))
        self._fh.write(_END_MAGIC)
        if self._owns_engine:
            self._engine.close()
        if self._atomic is not None:
            self._atomic.commit()
        elif self._owns_fh:
            self._fh.close()
        self._closed = True

    def abort(self) -> None:
        """Abandon the checkpoint; a durable target is left untouched."""
        if self._closed:
            return
        if self._owns_engine:
            self._engine.close()
        if self._atomic is not None:
            self._atomic.discard()
        elif self._owns_fh:
            self._fh.close()
        self._closed = True

    def __enter__(self) -> "CheckpointWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # A manifest written after an exception would bless a partial
        # checkpoint as complete; abort instead.
        if exc_type is not None:
            self.abort()
        else:
            self.close()


def _tag_segment(exc: CodecError, entry: VariableMeta) -> None:
    """Prefix a segment decode error's location with the segment id."""
    if isinstance(exc, CorruptionError):
        inner = exc.region or "?"
        if not inner.startswith("segment["):
            exc.region = f"segment[{entry.step}/{entry.name}].{inner}"
            if exc.offset is not None:
                # Inner offsets are relative to the segment blob.
                exc.offset += entry.offset


class CheckpointReader:
    """Random access to checkpoint variables."""

    def __init__(
        self, source: str | os.PathLike | io.BufferedIOBase
    ) -> None:
        if isinstance(source, (str, os.PathLike)):
            self._fh = open(Path(source), "rb")
            self._owns_fh = True
        else:
            self._fh = source
            self._owns_fh = False
        self._load_manifest()

    def _load_manifest(self) -> None:
        fh = self._fh
        fh.seek(0)
        head = fh.read(5)
        if len(head) < 5:
            raise TruncationError(
                "file too small to be PRCK", region="header", offset=len(head)
            )
        if head[:4] != _MAGIC:
            raise CorruptionError(
                "not a PRCK checkpoint file", region="header", offset=0
            )
        if head[4] != _VERSION:
            raise CorruptionError(
                f"unsupported PRCK version {head[4]}", region="header", offset=4
            )
        fh.seek(0, io.SEEK_END)
        size = fh.tell()
        if size < 5 + _TRAILER_BYTES:
            raise TruncationError(
                "PRCK file lacks a trailer", region="trailer", offset=size
            )
        fh.seek(size - _TRAILER_BYTES)
        trailer = fh.read(_TRAILER_BYTES)
        if trailer[12:] != _END_MAGIC:
            raise CorruptionError(
                "missing PRCK end marker", region="trailer", offset=12
            )
        manifest_len = int.from_bytes(trailer[:8], "little")
        manifest_crc = int.from_bytes(trailer[8:12], "little")
        manifest_start = size - _TRAILER_BYTES - manifest_len
        if manifest_start < 5:
            raise CorruptionError(
                f"PRCK manifest length {manifest_len} exceeds the file",
                region="trailer",
            )
        fh.seek(manifest_start)
        manifest = fh.read(manifest_len)
        if len(manifest) != manifest_len:
            raise TruncationError("truncated PRCK manifest", region="manifest")
        if crc32(manifest) != manifest_crc:
            raise CorruptionError(
                "PRCK manifest checksum mismatch", region="manifest"
            )
        self._entries = _decode_manifest(manifest, manifest_start)
        self._by_key = {(e.step, e.name): e for e in self._entries}

    # -- catalogue ---------------------------------------------------------

    def steps(self) -> list[int]:
        """Sorted list of checkpointed step numbers."""
        return sorted({e.step for e in self._entries})

    def variables(self, step: int | None = None) -> list[str]:
        """Variable names (optionally restricted to one step)."""
        names = [
            e.name for e in self._entries if step is None or e.step == step
        ]
        return sorted(set(names))

    def meta(self, step: int, name: str) -> VariableMeta:
        """Manifest entry for ``(step, name)``."""
        try:
            return self._by_key[(step, name)]
        except KeyError:
            raise KeyError(f"no variable {name!r} at step {step}") from None

    # -- reads --------------------------------------------------------------

    def _segment_reader(self, entry: VariableMeta) -> PrimacyFileReader:
        self._fh.seek(entry.offset)
        blob = self._fh.read(entry.length)
        if len(blob) != entry.length:
            raise TruncationError(
                f"checkpoint segment ({entry.step}, {entry.name!r}) "
                "truncated",
                region=f"segment[{entry.step}/{entry.name}]",
                offset=entry.offset,
            )
        try:
            return PrimacyFileReader(io.BytesIO(blob))
        except CodecError as exc:
            _tag_segment(exc, entry)
            raise

    def read(self, step: int, name: str) -> np.ndarray:
        """Read one whole variable."""
        t0 = time.perf_counter() if _OBS_STATE.enabled else 0.0
        entry = self.meta(step, name)
        reader = self._segment_reader(entry)
        try:
            raw = reader.read_all()
            out = np.frombuffer(raw, dtype=entry.dtype).reshape(entry.shape)
            if _OBS_STATE.enabled:
                reg = _obs_metrics.registry()
                reg.counter("checkpoint.read.variables").inc()
                reg.counter("checkpoint.read.bytes").inc(out.nbytes)
                _obs_trace.record_span(
                    "checkpoint.read", time.perf_counter() - t0, variable=name
                )
            return out
        except CodecError as exc:
            _tag_segment(exc, entry)
            raise
        except ValueError as exc:
            # frombuffer/reshape mismatch: the segment decoded but does
            # not hold shape-many dtype values.
            raise CorruptionError(
                f"segment ({step}, {name!r}) does not match its manifest "
                f"shape/dtype: {exc}",
                region=f"segment[{step}/{name}]",
                offset=entry.offset,
            ) from exc

    def read_range(
        self, step: int, name: str, start: int, count: int
    ) -> np.ndarray:
        """Read ``count`` flat values starting at ``start`` (C order)."""
        entry = self.meta(step, name)
        reader = self._segment_reader(entry)
        try:
            raw = reader.read_values(start, count)
        except CodecError as exc:
            _tag_segment(exc, entry)
            raise
        return np.frombuffer(raw, dtype=entry.dtype)

    def close(self) -> None:
        """Flush/close the underlying file if owned."""
        if self._owns_fh:
            self._fh.close()

    def __enter__(self) -> "CheckpointReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
