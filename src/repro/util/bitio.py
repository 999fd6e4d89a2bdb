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

Bits are packed MSB-first inside each byte (the conventional order for
Huffman streams).
"""

from __future__ import annotations

import numpy as np

__all__ = ["pack_bits"]

_MAX_CODE_BITS = 57  # max codeword length supported by the uint64 fast path


def pack_bits(codes: np.ndarray, lengths: np.ndarray) -> bytes:
    """Pack variable-length codewords into a MSB-first bit stream.

    Parameters
    ----------
    codes:
        ``uint64`` array; the low ``lengths[i]`` bits of ``codes[i]`` are the
        codeword, most-significant bit emitted first.  Higher bits are
        ignored.
    lengths:
        integer array of the same shape, each in ``[0, 57]``.

    Returns
    -------
    bytes
        The packed stream, zero-padded to a whole byte.
    """
    codes = np.ascontiguousarray(codes, dtype=np.uint64)
    lengths = np.ascontiguousarray(lengths, dtype=np.int64)
    if codes.shape != lengths.shape:
        raise ValueError("codes and lengths must have identical shapes")
    if codes.ndim != 1:
        raise ValueError("pack_bits expects 1-D arrays")
    if lengths.size == 0:
        return b""
    widths = lengths.view(np.uint64)  # a negative length becomes huge
    if widths.max() > _MAX_CODE_BITS:
        raise ValueError(f"code lengths must be in [0, {_MAX_CODE_BITS}]")

    ends = np.cumsum(lengths)
    total = int(ends[-1])
    if total == 0:
        return b""
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
    return out[-(total + 63 >> 6) :].astype(">u8").tobytes()[: total + 7 >> 3]
