"""From-scratch CRC-32 and Adler-32 checksums (vectorized).

The PRIMACY container format seals every chunk with a checksum so corruption
is caught before a bogus index silently remaps data.  Both algorithms are
implemented here rather than imported from :mod:`zlib` because the whole
compression substrate is built from scratch in this reproduction.

CRC-32 uses the standard reflected polynomial ``0xEDB88320`` with an 8-bit
lookup table; the byte loop is the only scalar part and runs over table
lookups gathered with NumPy in blocks.  Adler-32 uses its closed form over
4,096-byte blocks: one float64 matrix-vector product per 64 KiB slab gives
every block's weighted byte sum.  That is exact, because a block's
weighted sum is at most ``255 * 4096 * 4097 / 2 < 2**53``, and the slab
sums are combined in integers, so temporaries stay at ~0.5 MB for any
input size.
"""

from __future__ import annotations

import numpy as np

__all__ = ["crc32", "adler32"]

_CRC_POLY = np.uint32(0xEDB88320)


def _build_crc_table() -> np.ndarray:
    table = np.arange(256, dtype=np.uint32)
    for _ in range(8):
        low_bit = table & np.uint32(1)
        table = np.where(low_bit.astype(bool), (table >> np.uint32(1)) ^ _CRC_POLY, table >> np.uint32(1))
    return table


_CRC_TABLE = _build_crc_table()
# Plain-int copy: the per-byte recurrence is serial, and Python-int table
# lookups beat NumPy scalar ops by ~20x in that loop.
_CRC_TABLE_LIST = _CRC_TABLE.tolist()


def crc32(data: bytes | np.ndarray, value: int = 0) -> int:
    """Compute the CRC-32 of ``data`` (same parameters as zlib's crc32).

    The recurrence is inherently serial per byte; use this for headers and
    metadata, and :func:`adler32` (vectorized) for bulk payloads.
    """
    if isinstance(data, np.ndarray):
        data = np.ascontiguousarray(data, dtype=np.uint8).tobytes()
    crc = (value ^ 0xFFFFFFFF) & 0xFFFFFFFF
    table = _CRC_TABLE_LIST
    for byte in data:
        crc = table[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFF


_ADLER_MOD = 65521
#: Bytes per block.  A block's weighted sum is at most
#: 255 * 4096 * 4097 / 2 < 2**53, so float64 holds it exactly.
_ADLER_BLOCK = 4096
#: Blocks are summed one 64 KiB slab at a time: the slab's float64 copy
#: (512 KiB) is the only temporary, whatever the input size.
_ADLER_SLAB = 16 * _ADLER_BLOCK
#: Weight of byte ``j`` of a block: ``_ADLER_BLOCK - j``.
_ADLER_WEIGHTS = np.arange(_ADLER_BLOCK, 0.0, -1)
#: Bytes that follow each block of a full slab, up to the slab's end.
_ADLER_AFTER = np.arange(_ADLER_SLAB - _ADLER_BLOCK, -1.0, -_ADLER_BLOCK)


def adler32(data: bytes | np.ndarray, value: int = 1) -> int:
    """Compute the Adler-32 of ``data`` (same parameters as zlib's adler32).

    Vectorized via the closed form: with ``a0``/``b0`` the incoming state and
    ``x`` the ``n`` input bytes, ``a = a0 + sum(x)`` and
    ``b = b0 + n*a0 + sum((n - i) * x[i])``, both mod 65521.  Each slab's
    blocks are summed, and weighted by one float64 matrix-vector product
    with :data:`_ADLER_WEIGHTS`; the slab's sums stay below
    ``255 * 65536 * 65537 / 2 < 2**53``, so they are exact, and slabs are
    combined in Python integers.
    """
    buf = np.frombuffer(data, dtype=np.uint8) if isinstance(data, (bytes, bytearray, memoryview)) else np.asarray(data, dtype=np.uint8).ravel()
    a = (value & 0xFFFF) % _ADLER_MOD
    b = ((value >> 16) & 0xFFFF) % _ADLER_MOD
    work = np.empty(min(_ADLER_SLAB, -(-buf.size // _ADLER_BLOCK) * _ADLER_BLOCK))
    for start in range(0, buf.size, _ADLER_SLAB):
        slab = buf[start : start + _ADLER_SLAB]
        n = slab.size
        # Zeros in front of a short slab add nothing to either sum and keep
        # every byte's distance to the slab's end.
        blocks = work[: -(-n // _ADLER_BLOCK) * _ADLER_BLOCK]
        blocks[: blocks.size - n] = 0.0
        blocks[blocks.size - n :] = slab
        rows = blocks.reshape(-1, _ADLER_BLOCK)
        sums = rows.sum(axis=1)
        s1 = int(sums.sum())
        s2 = int((rows @ _ADLER_WEIGHTS).sum() + sums @ _ADLER_AFTER[-len(sums) :])
        b = (b + n * a + s2) % _ADLER_MOD
        a = (a + s1) % _ADLER_MOD
    return (b << 16) | a
