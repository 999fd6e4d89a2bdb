"""PRIF file format primitives shared by the writer, reader, and fsck.

Decoding here is *adversarial*: every field is bounds-checked and every
malformed input raises a typed :class:`CorruptionError` /
:class:`TruncationError` (both :class:`CodecError` subclasses) carrying
the region and byte offset of the first divergence -- never a bare
``IndexError`` or ``ValueError`` leaking out of slicing or varint
decoding.  The trailer seals the header + footer metadata with a CRC-32
so a flipped bit in the chunk table or the stored tail is detected
before it can misdirect a read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compressors.base import CorruptionError, TruncationError, checked_uvarint
from repro.core.idmap import IndexReusePolicy
from repro.core.linearize import Linearization
from repro.core.primacy import PrimacyConfig
from repro.util.checksum import crc32
from repro.util.varint import encode_uvarint

__all__ = [
    "MAGIC",
    "END_MAGIC",
    "VERSION",
    "TRAILER_BYTES",
    "ChunkEntry",
    "FileInfo",
    "checked_bytes",
    "require_storable",
    "encode_header",
    "decode_header",
    "encode_footer",
    "decode_footer",
    "encode_trailer",
    "decode_trailer",
]

MAGIC = b"PRIF"
END_MAGIC = b"PRIE"
VERSION = 2  # v2: trailer grew a CRC-32 over header+footer (was 12 bytes)

#: Fixed trailer: footer length (u64) | CRC-32 of header+footer (u32) | "PRIE".
TRAILER_BYTES = 16

# A chunk-table row is at least offset-delta + length + n_values +
# inline flag + index_base = 5 bytes; used to reject absurd chunk counts
# before looping on them.
_MIN_CHUNK_ROW_BYTES = 5


def checked_bytes(
    data, pos: int, length: int, what: str, region: str
) -> tuple[bytes, int]:
    """Slice ``length`` bytes with an explicit bounds check."""
    raw = bytes(data[pos : pos + length])
    if len(raw) != length:
        raise TruncationError(
            f"{what} truncated at byte {pos} "
            f"(need {length} bytes, have {len(raw)})",
            region=region,
            offset=pos,
        )
    return raw, pos + length


@dataclass(frozen=True)
class ChunkEntry:
    """One row of the footer's chunk table."""

    offset: int  # absolute byte offset of the record in the file
    length: int  # record length in bytes
    n_values: int  # values held by this chunk
    inline_index: bool  # record carries a full index (reuse chain root)
    index_base: int  # chunk id whose inline index this chunk's map builds on


@dataclass(frozen=True)
class FileInfo:
    """Decoded header + footer metadata."""

    config: PrimacyConfig
    chunks: tuple[ChunkEntry, ...] = field(default=())
    tail: bytes = b""
    total_bytes: int = 0
    planned: bool = False  # records may carry per-chunk planner headers

    @property
    def n_values(self) -> int:
        """Number of values covered."""
        return sum(c.n_values for c in self.chunks)


def require_storable(config: PrimacyConfig) -> None:
    """Raise ``ValueError`` for a config that a PRIF header cannot describe.

    The header has no ISOBAR-granularity flag, so bit-plane records would
    be read back as byte columns and fail.  PRCK segments and PRAC shards
    embed this header, so every file writer calls this before it creates
    any file.
    """
    if config.isobar_granularity != "byte":
        raise ValueError(
            "PRIF headers cannot record isobar_granularity='bit' (files "
            "would not read back); use a PRIM container for bit planes"
        )


def encode_header(config: PrimacyConfig, planned: bool = False) -> bytes:
    """Serialize the PRIF header for ``config``.

    ``planned`` marks a file whose records were written by the per-chunk
    planner: each record is self-describing (see
    :mod:`repro.planner.record`) and ``config``'s codec / split-width /
    linearization describe the planner's *base*, not every chunk.
    """
    out = bytearray()
    out += MAGIC
    out.append(VERSION)
    out.append(
        (1 if config.checksum else 0)
        | (2 if config.linearization is Linearization.ROW else 0)
        | (4 if planned else 0)
    )
    name = config.codec.encode("ascii")
    out += encode_uvarint(len(name))
    out += name
    out += encode_uvarint(config.word_bytes)
    out += encode_uvarint(config.high_bytes)
    out += encode_uvarint(config.chunk_bytes)
    policy = config.index_policy.value.encode("ascii")
    out += encode_uvarint(len(policy))
    out += policy
    return bytes(out)


def decode_header(data: bytes) -> tuple[PrimacyConfig, int, bool]:
    """Parse a PRIF header; returns ``(config, next_offset, planned)``.

    Raises :class:`TruncationError` when ``data`` is a proper prefix of a
    valid header (callers reading incrementally grow the window on that)
    and :class:`CorruptionError` for anything structurally wrong.
    """
    if len(data) < 6:
        raise TruncationError(
            "PRIF header shorter than its fixed preamble",
            region="header",
            offset=len(data),
        )
    if data[:4] != MAGIC:
        raise CorruptionError("not a PRIF file", region="header", offset=0)
    if data[4] != VERSION:
        raise CorruptionError(
            f"unsupported PRIF version {data[4]}", region="header", offset=4
        )
    flags = data[5]
    if flags & ~0x07:
        raise CorruptionError(
            f"unknown PRIF header flags 0x{flags:02x}",
            region="header",
            offset=5,
        )
    pos = 6
    name_len, pos = checked_uvarint(data, pos, "codec name length", "header")
    raw_name, pos = checked_bytes(data, pos, name_len, "codec name", "header")
    word_bytes, pos = checked_uvarint(data, pos, "word width", "header")
    high_bytes, pos = checked_uvarint(data, pos, "high-order width", "header")
    chunk_bytes, pos = checked_uvarint(data, pos, "chunk size", "header")
    policy_len, pos = checked_uvarint(data, pos, "index policy length", "header")
    raw_policy, pos = checked_bytes(
        data, pos, policy_len, "index policy name", "header"
    )
    try:
        codec = raw_name.decode("ascii")
        policy = raw_policy.decode("ascii")
    except UnicodeDecodeError as exc:
        raise CorruptionError(
            f"non-ASCII name in PRIF header: {exc}", region="header"
        ) from exc
    try:
        policy_value = IndexReusePolicy(policy)
    except ValueError as exc:
        raise CorruptionError(
            f"unknown index policy {policy!r}", region="header"
        ) from exc
    try:
        config = PrimacyConfig(
            codec=codec,
            chunk_bytes=chunk_bytes,
            word_bytes=word_bytes,
            high_bytes=high_bytes,
            linearization=(
                Linearization.ROW if flags & 2 else Linearization.COLUMN
            ),
            index_policy=policy_value,
            checksum=bool(flags & 1),
        )
    except ValueError as exc:
        raise CorruptionError(
            f"inconsistent PRIF header fields: {exc}", region="header"
        ) from exc
    return config, pos, bool(flags & 4)


def encode_footer(chunks: list[ChunkEntry], tail: bytes, total_bytes: int) -> bytes:
    """Serialize the PRIF footer (chunk table + tail + total length).

    The fixed trailer is *not* included; use :func:`encode_trailer` with
    the header bytes so the metadata CRC can cover both.
    """
    out = bytearray()
    out += encode_uvarint(len(chunks))
    prev_offset = 0
    for c in chunks:
        out += encode_uvarint(c.offset - prev_offset)
        prev_offset = c.offset
        out += encode_uvarint(c.length)
        out += encode_uvarint(c.n_values)
        out.append(1 if c.inline_index else 0)
        out += encode_uvarint(c.index_base)
    out += encode_uvarint(len(tail))
    out += tail
    out += encode_uvarint(total_bytes)
    return bytes(out)


def encode_trailer(header: bytes, footer: bytes) -> bytes:
    """Fixed-size trailer letting the reader find and verify the footer."""
    out = bytearray()
    out += len(footer).to_bytes(8, "little")
    out += crc32(footer, value=crc32(header)).to_bytes(4, "little")
    out += END_MAGIC
    return bytes(out)


def decode_trailer(trailer: bytes) -> tuple[int, int]:
    """Parse the fixed trailer; returns ``(footer_len, metadata_crc)``."""
    if len(trailer) != TRAILER_BYTES:
        raise TruncationError(
            "PRIF trailer truncated", region="trailer", offset=len(trailer)
        )
    if trailer[12:] != END_MAGIC:
        raise CorruptionError(
            "missing PRIF end marker", region="trailer", offset=12
        )
    footer_len = int.from_bytes(trailer[:8], "little")
    metadata_crc = int.from_bytes(trailer[8:12], "little")
    return footer_len, metadata_crc


def decode_footer(footer: bytes) -> tuple[list[ChunkEntry], bytes, int]:
    """Parse a PRIF footer; returns ``(chunks, tail, total_bytes)``.

    Validates structure as it goes: chunk count bounded by the footer
    size, record lengths positive, offsets strictly increasing and
    non-overlapping, reuse bases pointing backwards, and no trailing
    garbage after the total-length field.
    """
    pos = 0
    n_chunks, pos = checked_uvarint(footer, pos, "chunk count", "footer")
    if n_chunks * _MIN_CHUNK_ROW_BYTES > len(footer):
        raise CorruptionError(
            f"chunk count {n_chunks} cannot fit in a "
            f"{len(footer)}-byte footer",
            region="footer",
            offset=0,
        )
    chunks: list[ChunkEntry] = []
    offset = 0
    prev_end = 0
    for i in range(n_chunks):
        region = "footer"
        delta, pos = checked_uvarint(footer, pos, f"chunk {i} offset delta", region)
        offset += delta
        length, pos = checked_uvarint(footer, pos, f"chunk {i} length", region)
        n_values, pos = checked_uvarint(footer, pos, f"chunk {i} value count", region)
        if pos >= len(footer):
            raise TruncationError(
                f"chunk {i} row truncated", region=region, offset=pos
            )
        flag = footer[pos]
        if flag not in (0, 1):
            raise CorruptionError(
                f"chunk {i} inline-index flag is {flag}, not 0/1",
                region=region,
                offset=pos,
            )
        inline = bool(flag)
        pos += 1
        index_base, pos = checked_uvarint(footer, pos, f"chunk {i} index base", region)
        if length < 1:
            raise CorruptionError(
                f"chunk {i} has zero-length record", region=region
            )
        if n_values < 1:
            raise CorruptionError(
                f"chunk {i} covers zero values", region=region
            )
        if chunks and offset < prev_end:
            raise CorruptionError(
                f"chunk {i} offset {offset} overlaps chunk {i - 1} "
                f"(ends at {prev_end})",
                region=region,
            )
        if index_base > i:
            raise CorruptionError(
                f"chunk {i} reuse base {index_base} points forward",
                region=region,
            )
        prev_end = offset + length
        chunks.append(
            ChunkEntry(
                offset=offset,
                length=length,
                n_values=n_values,
                inline_index=inline,
                index_base=index_base,
            )
        )
    tail_len, pos = checked_uvarint(footer, pos, "tail length", "footer")
    tail, pos = checked_bytes(footer, pos, tail_len, "footer tail", "footer")
    total_bytes, pos = checked_uvarint(footer, pos, "total length", "footer")
    if pos != len(footer):
        raise CorruptionError(
            f"{len(footer) - pos} bytes of trailing garbage in PRIF footer",
            region="footer",
            offset=pos,
        )
    return chunks, tail, total_bytes
