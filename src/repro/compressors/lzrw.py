"""``pylzo``: fast byte-aligned dictionary compressor (lzo analogue).

lzo's profile in the paper is "almost negligible compression, extremely
high throughput" (Sec V).  This codec reproduces that design point with
the scheme lzo1x and LZ4 share: a single-probe hash table (no chains) and
byte-aligned *sequence* records, each a literal run followed by a short
back-reference::

    uvarint  literal_run_length
    <run>    literal bytes
    [2 bytes match, unless the run reaches end-of-input:
             4 bits (length - 3), 12 bits backward offset (1..4095)]

Long literal runs cost 1-2 bytes regardless of length (unlike classic
LZRW1's 16-bit control words, which charge 12.5 % on incompressible
data), so weakly-compressible scientific data keeps its small wins.
Matches are 3..18 bytes within a 4 KiB window.  A stored-block escape
bounds worst-case expansion.

Neither side loops per byte.  The encoder builds two per-position tables
with NumPy, the 3-byte hashes and the 4-byte little-endian words, and
reads them one visited position at a time.  One word compare accepts or
rejects the hash candidate, and the match length is the lowest differing
byte of two at most 14-byte integers.  The decoder makes one pass over
the records into a preallocated output.  A record spends at least 3 bytes
for at most 18 output bytes, so a size header promising more than 6x the
body is rejected before anything is allocated.  Damage raises
:class:`~repro.compressors.base.TruncationError` or
:class:`~repro.compressors.base.CorruptionError`.

Both sides take a *stretch* of identical records (no literals, same
length L and offset d) in one step.  An LZ77 copy runs byte by byte, so
k such records equal one copy of k*L bytes at offset d.  The decoder
counts a stretch with doubling compares, capped so that the copy ends
by the size header, and copies once; records past the cap go through
the loop and its checks.  The encoder takes the one stretch it can
prove without running the loop: a match 18 long and 17 back whose
source is a run of one byte.  Each pass after it would find the seed 17
back and match 18 more bytes until fewer than 18 run bytes are left, so
it appends those records at once and leaves the hash table as the loop
would.  Output is byte-identical to the record-at-a-time loops.
"""

from __future__ import annotations

import numpy as np

from repro.compressors.base import (
    Codec,
    CorruptionError,
    TruncationError,
    checked_uvarint,
    register_codec,
)
from repro.util.varint import encode_uvarint

__all__ = ["LzrwCodec"]

_MODE_RAW = 0
_MODE_COMPRESSED = 1

_HASH_BITS = 13
_HASH_SIZE = 1 << _HASH_BITS
_WINDOW = 4095
_MIN_MATCH = 3
_MAX_MATCH = 18
_PROFITABLE_MATCH = 4  # shorter matches do not pay for their 2 + ~1 bytes
#: The match every record inside a long byte run makes: 18 bytes, 17 back.
_RUN_MATCH = ((_MAX_MATCH - _MIN_MATCH) << 12) | (_MAX_MATCH - 1)
_RUN_RECORD = bytes([0, _RUN_MATCH >> 8, _RUN_MATCH & 0xFF])
#: Such a record's 18 source bytes inside a run, for every byte value.
_BYTE_RUNS = [bytes([b]) * _MAX_MATCH for b in range(256)]


def _tables(data: bytes) -> tuple[memoryview, memoryview]:
    """Vectorized per-position tables: the 4-byte little-endian word and the
    hash of the 3 bytes at each position ``0 .. n - 3``.

    The word at ``n - 3`` reads one zero pad byte, which no hash sees and
    no match compares.  Both tables are returned as memoryviews, which hand
    out Python ints one index at a time, so the scan converts only the
    positions it visits.
    """
    # One unaligned 4-byte load per position, from an overlapping view.
    shape = (max(len(data) - 2, 0),)
    words = np.ndarray(shape, "<u4", data + b"\0", strides=(1,)).copy()
    hashes = words & np.uint32(0xFFFFFF)
    hashes *= np.uint32(2654435761)
    hashes >>= np.uint32(32 - _HASH_BITS)
    return memoryview(hashes), memoryview(words)


def _repeats(data: bytes, unit: bytes, pos: int, cap: int) -> int:
    """How many copies of ``unit`` follow each other from ``data[pos]`` on,
    counting at most ``cap``.

    Doubling compares: the block doubles while it matches, then halves back
    down, so a count of k costs O(log k) compares over O(k) bytes.
    """
    width = len(unit)
    room = pos + cap * width
    end = pos
    block = unit
    size = width
    while end + size <= room and data.startswith(block, end):
        end += size
        block += block
        size += size
    while size > width:
        size >>= 1
        block = block[:size]
        if end + size <= room and data.startswith(block, end):
            end += size
    return (end - pos) // width


@register_codec
class LzrwCodec(Codec):
    """Single-probe dictionary compressor: fast, weak ratio."""

    name = "pylzo"

    def compress(self, data: bytes) -> bytes:
        """Compress ``data`` into a self-describing stream (Codec API)."""
        data = bytes(data)
        n = len(data)
        header = encode_uvarint(n)
        if n == 0:
            return header
        body = self._compress_body(data)
        if len(body) >= n:
            return header + bytes([_MODE_RAW]) + data
        return header + bytes([_MODE_COMPRESSED]) + body

    @staticmethod
    def _compress_body(data: bytes) -> bytes:
        n = len(data)
        hashes, words = _tables(data)
        # Empty slots hold a position beyond every window's reach.
        table = [-_WINDOW - 1] * _HASH_SIZE
        out = bytearray()
        append = out.append
        from_bytes = int.from_bytes
        run_start = 0
        i = 0
        miss = 0
        limit = n - _PROFITABLE_MATCH
        while i <= limit:
            hv = hashes[i]
            cand = table[hv]
            table[hv] = i
            # Equal words are exactly the matches of a profitable length.
            if i - cand <= _WINDOW and words[cand] == words[i]:
                length = n - i if n - i < _MAX_MATCH else _MAX_MATCH
                # The rest of the match ends at its lowest differing byte.
                rest = from_bytes(data[cand + 4 : cand + length], "little")
                diff = rest ^ from_bytes(data[i + 4 : i + length], "little")
                if diff:
                    length = 4 + (((diff & -diff).bit_length() - 1) >> 3)
                run = i - run_start
                if run < 0x80:
                    append(run)
                else:
                    out += encode_uvarint(run)
                if run:
                    out += data[run_start:i]
                packed = ((length - _MIN_MATCH) << 12) | (i - cand)
                append(packed >> 8)
                append(packed & 0xFF)
                # Seed the next position too (it has a hash: i + 1 < n - 2).
                table[hashes[i + 1]] = i + 1
                i += length
                run_start = i
                miss = 0
                if packed == _RUN_MATCH:
                    # If the match's 18 source bytes are one byte value,
                    # ``i`` sits in a run of it that starts at or before
                    # ``cand``; each 18 run bytes left then make one more
                    # of this record, and only ``table[hv]`` moves, to the
                    # last position seeded.
                    block = _BYTE_RUNS[data[cand]]
                    if data.startswith(block, cand):
                        repeats = _repeats(data, block, i, (n - i) // _MAX_MATCH)
                        if repeats:
                            out += _RUN_RECORD * repeats
                            i += _MAX_MATCH * repeats
                            run_start = i
                            table[hv] = i - (_MAX_MATCH - 1)
                continue
            # Scan acceleration: after a long miss streak, probe sparsely.
            i += 1 + (miss >> 6)
            miss += 1

        out += encode_uvarint(n - run_start)
        out += data[run_start:]
        return bytes(out)

    def decompress(self, data: bytes) -> bytes:
        """Invert :meth:`compress` exactly (Codec API)."""
        data = bytes(data)
        n, pos = checked_uvarint(data, 0, "lzrw size header")
        if n == 0:
            return b""
        if pos >= len(data):
            raise TruncationError("truncated lzrw stream")
        mode = data[pos]
        pos += 1
        if mode == _MODE_RAW:
            raw = data[pos : pos + n]
            if len(raw) != n:
                raise TruncationError("truncated stored block")
            return raw
        if mode != _MODE_COMPRESSED:
            raise CorruptionError(f"unknown lzrw mode {mode}")
        return self._decompress_body(data, pos, n)

    @staticmethod
    def _decompress_body(data: bytes, pos: int, n: int) -> bytes:
        total = len(data)
        # A record spends at least 3 bytes (run length and match) for at
        # most 18 output bytes, and a final literal run spends more than it
        # yields, so no well-formed body promises more than 6x its size.
        if n > 6 * (total - pos):
            raise TruncationError("lzrw body too short for its size header")
        out = bytearray(n)
        o = 0
        with memoryview(out) as view:
            while o < n:
                if pos >= total:
                    raise TruncationError("truncated lzrw record")
                run = data[pos]
                if run < 0x80:
                    pos += 1
                else:
                    run, pos = checked_uvarint(data, pos, "lzrw literal run")
                if run:
                    end = o + run
                    if pos + run > total:
                        raise TruncationError("truncated lzrw literal run")
                    if end > n:
                        raise CorruptionError("lzrw literal run overruns the output")
                    view[o:end] = data[pos : pos + run]
                    pos += run
                    o = end
                    if o == n:
                        break
                if pos + 2 > total:
                    raise TruncationError("truncated lzrw match")
                hi = data[pos]
                lo = data[pos + 1]
                pos += 2
                length = (hi >> 4) + _MIN_MATCH
                offset = ((hi & 0x0F) << 8) | lo
                if offset == 0 or offset > o:
                    raise CorruptionError("invalid lzrw match offset")
                end = o + length
                if end > n:
                    raise CorruptionError("lzrw match overruns the output")
                if (
                    not run
                    and pos + 2 < total
                    and data[pos] == 0
                    and data[pos + 1] == hi
                    and data[pos + 2] == lo
                ):
                    # Records repeating this one copy on from where it
                    # stops, so a stretch of them is one longer copy at
                    # the same offset; it takes only the repeats that fit
                    # before ``n``, and the loop meets any beyond.
                    cap = (n - o) // length - 1
                    repeats = _repeats(data, data[pos : pos + 3], pos, cap)
                    pos += 3 * repeats
                    end += length * repeats
                    length = end - o
                start = o - offset
                if offset >= length:
                    view[o:end] = view[start : start + length]
                else:
                    # An overlapping copy repeats the last ``offset`` bytes.
                    view[o:end] = (out[start:o] * (length // offset + 1))[:length]
                o = end
        return bytes(out)
