"""Zero-copy buffer normalization.

The compression stack accepts ``bytes``, ``bytearray``, ``memoryview``
and NumPy arrays everywhere raw data enters (compressors, chunker,
file writer, parallel engine).  Converting eagerly with ``bytes(data)``
copies the whole payload -- at the paper's 3 MB chunk granularity that
is a 3 MB copy per chunk before any work happens.  :func:`as_view`
instead produces a flat read-only byte :class:`memoryview` over the
caller's buffer without copying (the only copy happens for
non-contiguous NumPy arrays, where a contiguous staging buffer is
unavoidable).
"""

from __future__ import annotations

import numpy as np

__all__ = ["as_view"]


def as_view(data: bytes | bytearray | memoryview | np.ndarray) -> memoryview:
    """Return a flat (1-D, byte-typed, read-only) memoryview of ``data``.

    No bytes are copied for ``bytes``/``bytearray``/``memoryview`` inputs
    and C-contiguous ndarrays; non-contiguous arrays are staged through
    ``np.ascontiguousarray`` (the minimal possible copy).
    """
    if isinstance(data, memoryview):
        if data.ndim != 1 or data.format != "B":
            data = data.cast("B")
        return data.toreadonly()
    if isinstance(data, np.ndarray):
        # A byte view of the flattened array: unlike memoryview.cast,
        # it also takes zero-size multi-dimensional arrays.
        data = np.ascontiguousarray(data).reshape(-1).view(np.uint8)
    elif not isinstance(data, (bytes, bytearray)):
        raise TypeError(
            f"cannot view {type(data).__name__} as a byte buffer"
        )
    return memoryview(data).toreadonly()
