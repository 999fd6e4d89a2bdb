"""Byte-level data linearization (Sec II-D, IV-H).

After ID mapping, each chunk holds an ``N x k`` matrix of ID bytes.  The
paper compresses the matrix **column by column** (i.e. the transpose): since
low IDs dominate, the high-order ID byte column is almost all zeros, and
column order turns that into long 0-byte runs that the backend compressor's
run-length machinery converts into large gains (the paper measures 8-10 %
CR and ~20 % CTP improvements over row order; ``bench_linearization``
reproduces this).

Both orders are implemented so the ablation can compare them.  The
transpose also happens to be the cache-friendly direction for columnar
access -- the "smaller strides are faster" effect from the optimization
guide.
"""

from __future__ import annotations

import enum

import numpy as np

__all__ = ["Linearization", "column_linearize", "row_linearize"]


class Linearization(enum.Enum):
    """Serialization order of a byte matrix."""

    COLUMN = "column"  # paper's choice: transpose, runs of equal bytes
    ROW = "row"  # natural memory order


def column_linearize(matrix: np.ndarray) -> bytes:
    """Serialize column-by-column (the transpose)."""
    matrix = _check(matrix)
    return np.ascontiguousarray(matrix.T).tobytes()


def row_linearize(matrix: np.ndarray) -> bytes:
    """Serialize row-by-row (natural order)."""
    matrix = _check(matrix)
    return np.ascontiguousarray(matrix).tobytes()


def _check(matrix: np.ndarray) -> np.ndarray:
    matrix = np.asarray(matrix)
    if matrix.dtype != np.uint8 or matrix.ndim != 2:
        raise ValueError("expected an N x k uint8 matrix")
    return matrix
