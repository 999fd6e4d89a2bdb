"""Vectorized bit-stream packing.

The entropy coders in :mod:`repro.compressors` emit per-symbol codewords of
varying lengths.  Packing those into a contiguous byte buffer one bit at a
time in Python would dominate runtime, so :func:`pack_bits` takes parallel
arrays ``(codes, lengths)`` and packs them in a fixed number of NumPy
passes over the codewords, none of them per bit:

* one cumulative sum gives every codeword's end bit;
* each codeword's low part is shifted into the 64-bit word that holds its
  last bit, and those words are summed per word with ``np.add.reduceat``
  (exact, because codewords never share bits);
* the high part of a codeword that starts in the previous word is OR-ed
  into that word (at most one codeword crosses each word boundary);
* the words are written big-endian and cut to the stream length.

It does so over slabs of ``_SLAB`` codewords through a :class:`BitWriter`,
so its ~60 bytes of temporaries per codeword stay slab-sized on large
streams.  A slab leaves an unfinished last byte; its bits become a first
codeword of the next slab, which therefore starts on a byte boundary.

Bits are packed MSB-first inside each byte (the conventional order for
Huffman streams).
"""

from __future__ import annotations

import numpy as np

__all__ = ["BitWriter", "pack_bits"]

_MAX_CODE_BITS = 57  # max codeword length supported by the uint64 fast path
_SLAB = 1 << 15  # codewords per packing pass


def _pack_words(codes: np.ndarray, lengths: np.ndarray) -> tuple[bytes, int]:
    """Pack one slab of valid ``uint64`` codes and ``int64`` lengths;
    returns ``(stream zero-padded to a whole byte, number of bits)``."""
    ends = np.cumsum(lengths)
    total = int(ends[-1])
    if total == 0:
        return b"", 0
    widths = lengths.view(np.uint64)
    codes = codes & ((np.uint64(1) << widths) - np.uint64(1))
    # Shift that puts a codeword's last bit where it lands in its word.
    shift = (-ends & 63).view(np.uint64)
    # The word holding each codeword's last bit, plus one (0 for leading
    # empty codewords).  No codeword spans a whole word, so every word
    # holds the last bit of at least one.
    word = ends + 63
    word >>= 6
    starts = np.empty(word.size, dtype=bool)
    starts[0] = True
    np.not_equal(word[1:], word[:-1], out=starts[1:])
    first = starts.nonzero()[0]
    out = np.add.reduceat(codes << shift, first)
    # Only the first codeword ending in a word can start in the word before.
    spill = first[1:]
    out[:-1] |= codes[spill] >> np.uint64(1) >> (np.uint64(63) - shift[spill])
    return out[-(total + 63 >> 6) :].astype(">u8").tobytes()[: total + 7 >> 3], total


class BitWriter:
    """Append codeword slabs to one MSB-first bit stream.

    ``write`` takes valid codewords (lengths in ``[0, 57]``); the caller
    checks them.  ``bits`` counts the bits written so far.
    """

    def __init__(self) -> None:
        self._out = bytearray()
        self._tail = 0  # the unfinished last byte's bits, right-aligned
        self._tail_bits = 0
        self.bits = 0

    def write(self, codes: np.ndarray, lengths: np.ndarray) -> None:
        """Append ``codes[i]``'s low ``lengths[i]`` bits, in order."""
        slab_codes = np.empty(codes.size + 1, dtype=np.uint64)
        slab_codes[0] = self._tail
        slab_codes[1:] = codes
        slab_lengths = np.empty(codes.size + 1, dtype=np.int64)
        slab_lengths[0] = self._tail_bits
        slab_lengths[1:] = lengths
        packed, total = _pack_words(slab_codes, slab_lengths)
        self.bits += total - self._tail_bits
        whole = total >> 3
        self._out += packed[:whole]
        self._tail_bits = total & 7
        self._tail = packed[whole] >> (8 - self._tail_bits) if self._tail_bits else 0

    def getvalue(self) -> bytes:
        """The stream so far, zero-padded to a whole byte."""
        if not self._tail_bits:
            return bytes(self._out)
        return bytes(self._out) + bytes([self._tail << (8 - self._tail_bits)])


def pack_bits(codes: np.ndarray, lengths: np.ndarray) -> bytes:
    """Pack variable-length codewords into a MSB-first bit stream.

    Parameters
    ----------
    codes:
        Unsigned integer array; the low ``lengths[i]`` bits of ``codes[i]``
        are the codeword, most-significant bit emitted first.  Higher bits
        are ignored.
    lengths:
        integer array of the same shape, each in ``[0, 57]``.

    Returns
    -------
    bytes
        The packed stream, zero-padded to a whole byte.
    """
    codes = np.asarray(codes)
    lengths = np.asarray(lengths)
    if codes.shape != lengths.shape:
        raise ValueError("codes and lengths must have identical shapes")
    if codes.ndim != 1:
        raise ValueError("pack_bits expects 1-D arrays")
    if lengths.size == 0:
        return b""
    if int(lengths.min()) < 0 or int(lengths.max()) > _MAX_CODE_BITS:
        raise ValueError(f"code lengths must be in [0, {_MAX_CODE_BITS}]")
    writer = BitWriter()
    for lo in range(0, lengths.size, _SLAB):
        writer.write(codes[lo : lo + _SLAB], lengths[lo : lo + _SLAB])
    return writer.getvalue()
