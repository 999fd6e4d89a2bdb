"""Bucketed integer coding (DEFLATE-style length/distance codes).

DEFLATE codes a match length or distance as a small *bucket symbol* (entropy
coded) plus raw *extra bits* giving the offset within the bucket.  We use
the same idea with power-of-two buckets: a non-negative value ``v`` is coded
as

* bucket symbol ``c = bit_length(v)`` (``v == 0`` -> ``c = 0``), and
* ``c - 1`` raw extra bits holding ``v - 2**(c-1)`` when ``c >= 1``.

Bucket symbols go through the shared Huffman block coder; extra bits are a
raw bit stream.  Crucially the extra-bit widths are all known once the
bucket symbols are decoded, so *decoding the extras is fully vectorized*:
one cumulative sum gives every bit offset and a single gather of 64-bit
windows extracts all values at once.
"""

from __future__ import annotations

import numpy as np

from repro.compressors.base import CodecError, TruncationError, checked_uvarint
from repro.compressors.huffman import decode_symbol_block, encode_symbol_block
from repro.util.bitio import pack_bits
from repro.util.varint import encode_uvarint

__all__ = ["MAX_BUCKET", "encode_bucketed", "decode_bucketed"]

# Values up to 2**40 - 1; far beyond any chunk size we compress.
MAX_BUCKET = 41


def _bucket_codes(values: np.ndarray) -> np.ndarray:
    """Vectorized ``bit_length`` for non-negative int64 values."""
    if values.size and int(values.min()) < 0:
        raise ValueError("bucketed coding requires non-negative values")
    codes = np.zeros(values.size, dtype=np.int64)
    nz = values > 0
    # int64 values < 2**53 are exact in float64, so log2 is safe here;
    # guard anyway by verifying the reconstruction invariant below.
    codes[nz] = np.floor(np.log2(values[nz].astype(np.float64))).astype(np.int64) + 1
    # Fix any boundary slip from float rounding (e.g. v == 2**k).
    too_low = nz & (values >= (np.int64(1) << np.minimum(codes, 62)))
    codes[too_low] += 1
    too_high = codes > 0
    too_high &= values < (np.int64(1) << np.maximum(codes - 1, 0))
    codes[too_high] -= 1
    if codes.size and int(codes.max()) >= MAX_BUCKET:
        raise ValueError("value too large for bucketed coding")
    return codes


def encode_bucketed(values: np.ndarray) -> bytes:
    """Serialize non-negative integers as bucket symbols + extra bits.

    Layout::

        uvarint count
        symbol block (bucket codes, alphabet MAX_BUCKET)
        uvarint extras length, extras bit stream
    """
    values = np.ascontiguousarray(values, dtype=np.int64)
    out = bytearray(encode_uvarint(values.size))
    if values.size == 0:
        return bytes(out)
    codes = _bucket_codes(values)
    out += encode_symbol_block(codes, MAX_BUCKET)
    widths = np.maximum(codes - 1, 0)
    extras = values - np.where(codes > 0, np.int64(1) << np.maximum(codes - 1, 0), 0)
    if extras.size and int(extras.min()) < 0:
        raise CodecError("internal bucket coding error")
    stream = pack_bits(extras.astype(np.uint64), widths)
    out += encode_uvarint(len(stream))
    out += stream
    return bytes(out)


def decode_bucketed(data: bytes, offset: int = 0) -> tuple[np.ndarray, int]:
    """Inverse of :func:`encode_bucketed`; returns ``(values, next_offset)``."""
    count, pos = checked_uvarint(data, offset, "bucket count")
    if count == 0:
        return np.zeros(0, dtype=np.int64), pos
    codes, pos = decode_symbol_block(data, pos)
    codes = codes.astype(np.int64)
    if codes.size != count:
        raise CodecError("bucket symbol count mismatch")
    stream_len, pos = checked_uvarint(data, pos, "bucket extras length")
    stream = data[pos : pos + stream_len]
    if len(stream) != stream_len:
        raise TruncationError("truncated bucket extras", offset=pos)
    pos += stream_len

    widths = np.maximum(codes - 1, 0)
    ends = np.cumsum(widths)
    starts = ends - widths
    total_bits = int(ends[-1]) if ends.size else 0
    if total_bits > 8 * stream_len:
        raise CodecError("bucket extras shorter than declared widths")

    # 64-bit big-endian windows at every byte position (padded), then one
    # vectorized gather pulls each extra field out of the bit stream.
    buf = np.frombuffer(stream, dtype=np.uint8)
    padded = np.zeros(buf.size + 8, dtype=np.uint8)
    padded[: buf.size] = buf
    win = np.zeros(buf.size + 1, dtype=np.uint64)
    for j in range(8):
        win |= padded[j : j + buf.size + 1].astype(np.uint64) << np.uint64(56 - 8 * j)

    k = (starts >> 3).astype(np.int64)
    r = (starts & 7).astype(np.uint64)
    w = widths.astype(np.uint64)
    shift = np.uint64(64) - r - w
    mask = np.where(w > 0, (np.uint64(1) << w) - np.uint64(1), np.uint64(0))
    extras = ((win[k] >> shift) & mask).astype(np.int64)

    values = np.where(codes > 0, (np.int64(1) << np.maximum(codes - 1, 0)) + extras, 0)
    return values, pos
