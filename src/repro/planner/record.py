"""Self-describing planned chunk records.

A *planned* record is a standard PRIMACY chunk record wrapped in a small
header naming the pipeline knobs the planner chose for that chunk::

    byte 0          flags (``_CHUNK_FLAG_PLANNED``)
    uvarint + bytes backend codec registry name (ASCII)
    uvarint         high-order split width
    byte            linearization (0 = column, 1 = row)
    ...             inner standard chunk record (inline index)

Bit 0x02 of the record flags byte marks the wrapper; plain records only
ever use bit 0x01 (inline index), so old and new records coexist in one
container and decompression dispatches per record with no planner state
(:meth:`repro.core.PrimacyCompressor._decompress_chunk` calls
:func:`decode_planned_record` when it sees the bit).  Knobs candidates
cannot vary -- word width, checksum, ISOBAR granularity -- stay in the
container/file header.
"""

from __future__ import annotations

from repro.compressors.base import (
    Codec,
    CodecError,
    CorruptionError,
    TruncationError,
    checked_uvarint,
    get_codec,
)
from repro.core.idmap import FrequencyIndex
from repro.core.kernels import ScratchArena
from repro.core.linearize import Linearization
from repro.core.primacy import _CHUNK_FLAG_PLANNED, PrimacyCompressor
from repro.isobar import IsobarConfig, IsobarPartitioner
from repro.planner.candidates import Candidate
from repro.util.varint import encode_uvarint

__all__ = [
    "is_planned_record",
    "encode_planned_record",
    "parse_planned_header",
    "decode_planned_record",
]


def is_planned_record(record: bytes | memoryview) -> bool:
    """Whether ``record`` starts with the planned-record flag bit."""
    return bool(record) and bool(record[0] & _CHUNK_FLAG_PLANNED)


def encode_planned_record(
    candidate: Candidate, inner_record: bytes
) -> bytes:
    """Wrap ``inner_record`` with ``candidate``'s planned header."""
    out = bytearray()
    out.append(_CHUNK_FLAG_PLANNED)
    name = candidate.codec.encode("ascii")
    out += encode_uvarint(len(name))
    out += name
    out += encode_uvarint(candidate.high_bytes)
    out.append(0 if candidate.linearization is Linearization.COLUMN else 1)
    out += inner_record
    return bytes(out)


def parse_planned_header(
    record: bytes | memoryview,
) -> tuple[str, int, Linearization, int]:
    """Parse a planned header; returns (codec, high_bytes, lin, inner_pos).

    Adversarial like the rest of record decoding: malformed headers raise
    typed :class:`CorruptionError` / :class:`TruncationError`.
    """
    if not record:
        raise TruncationError("empty chunk record")
    if record[0] != _CHUNK_FLAG_PLANNED:
        raise CorruptionError(
            f"unexpected planned-record flags 0x{record[0]:02x}"
        )
    name_len, pos = checked_uvarint(record, 1, "planned header codec name length")
    raw_name = bytes(record[pos : pos + name_len])
    if len(raw_name) != name_len:
        raise TruncationError("planned header codec name truncated", offset=pos)
    pos += name_len
    try:
        codec_name = raw_name.decode("ascii")
    except UnicodeDecodeError as exc:
        raise CorruptionError(
            f"non-ASCII codec name in planned header: {exc}"
        ) from exc
    high_bytes, pos = checked_uvarint(record, pos, "planned header split width")
    if not 1 <= high_bytes <= 3:
        raise CorruptionError(
            f"planned header split width {high_bytes} out of range"
        )
    if pos >= len(record):
        raise TruncationError(
            "planned header missing linearization byte", offset=pos
        )
    lin_byte = record[pos]
    if lin_byte not in (0, 1):
        raise CorruptionError(
            f"planned header linearization byte is {lin_byte}, not 0/1"
        )
    pos += 1
    linearization = Linearization.COLUMN if lin_byte == 0 else Linearization.ROW
    return codec_name, high_bytes, linearization, pos


def _codec_for(name: str) -> Codec:
    try:
        return get_codec(name)
    except KeyError as exc:
        raise CodecError(f"unknown backend codec {name!r}") from exc


def decode_planned_record(
    record: bytes | memoryview,
    word_bytes: int,
    use_checksum: bool,
    arena: ScratchArena,
) -> tuple[bytes, FrequencyIndex]:
    """Decode one planned record; returns ``(chunk_bytes, index)``.

    The pipeline is rebuilt from the planned header alone -- no planner
    state.  ``use_checksum`` comes from the enclosing container/file
    header (candidates cannot vary it); ``arena`` holds the decode
    scratch buffers.
    """
    codec_name, high_bytes, linearization, pos = parse_planned_header(record)
    codec = _codec_for(codec_name)
    partitioner = IsobarPartitioner(codec, IsobarConfig(), arena=arena)
    return PrimacyCompressor._decode_record(
        bytes(record[pos:]),
        partitioner,
        codec,
        word_bytes,
        high_bytes,
        linearization,
        use_checksum,
        None,
        arena,
    )
