"""Byte-matrix views of floating-point data and the high/low split.

PRIMACY treats a chunk of ``N`` doubles as an ``N x 8`` matrix of bytes in
**big-endian** order, so that column 0 holds the sign + top exponent bits
and column 1 the rest of the exponent + leading mantissa bits (Sec II-A).
The transform is purely integral -- a ``uint64`` byteswap -- so every bit
pattern (NaN payloads, infinities, subnormals, negative zero) survives the
round trip untouched.

The split widths generalize beyond float64: ``high_bytes`` defaults to the
paper's 2-of-8 but is configurable (the split-width ablation bench sweeps
it).
"""

from __future__ import annotations

import sys

import numpy as np

__all__ = ["values_to_byte_matrix", "split_bytes"]

_NATIVE_IS_LITTLE = sys.byteorder == "little"


def values_to_byte_matrix(data: bytes | np.ndarray, word_bytes: int = 8) -> np.ndarray:
    """View raw little-endian words as an ``N x word_bytes`` big-endian matrix.

    Parameters
    ----------
    data:
        Raw bytes of little-endian words (the native layout of float64
        arrays on every platform we target), or a numeric ndarray whose
        itemsize equals ``word_bytes``.
    word_bytes:
        Word width; 8 for float64, 4 for float32.

    Returns
    -------
    numpy.ndarray
        ``uint8`` matrix with the most significant byte in column 0.
    """
    if isinstance(data, np.ndarray):
        if data.dtype.itemsize != word_bytes:
            raise ValueError("array itemsize does not match word_bytes")
        buf = np.ascontiguousarray(data).view(np.uint8).ravel()
        if not _NATIVE_IS_LITTLE:  # pragma: no cover - big-endian hosts
            return buf.reshape(-1, word_bytes).copy()
    else:
        buf = np.frombuffer(data, dtype=np.uint8)
    if buf.size % word_bytes:
        raise ValueError("byte length is not a multiple of the word size")
    # Reverse bytes within each word: little-endian storage -> big-endian
    # matrix columns.
    return buf.reshape(-1, word_bytes)[:, ::-1].copy()


def split_bytes(
    matrix: np.ndarray, high_bytes: int = 2
) -> tuple[np.ndarray, np.ndarray]:
    """Split the byte matrix into (high-order, low-order) sub-matrices.

    ``high_bytes`` columns from the left (the compressible exponent region)
    go to the ID mapper; the rest go to ISOBAR.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ValueError("expected a 2-D byte matrix")
    if not 1 <= high_bytes <= matrix.shape[1]:
        raise ValueError("high_bytes out of range")
    return matrix[:, :high_bytes], matrix[:, high_bytes:]
