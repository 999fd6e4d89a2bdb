"""``as_view``: a flat, read-only byte view of every accepted buffer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.util.buffers import as_view

CASES = [
    b"abc",
    bytearray(b"xy"),
    memoryview(b"abcd"),
    memoryview(np.arange(4.0)),
    np.arange(6.0).reshape(2, 3),
    np.arange(6.0).reshape(2, 3).T,
    np.array(3.5),
    np.zeros((0, 3)),
]


@pytest.mark.parametrize("data", CASES, ids=range(len(CASES)))
def test_flat_readonly_bytes(data):
    view = as_view(data)
    assert view.ndim == 1 and view.format == "B" and view.readonly
    expected = (
        np.ascontiguousarray(data).tobytes()
        if isinstance(data, np.ndarray)
        else bytes(data)
    )
    assert bytes(view) == expected


def test_contiguous_array_is_not_copied():
    data = np.arange(8.0)
    view = as_view(data)
    data[0] = 42.0
    assert bytes(view[:8]) == np.float64(42.0).tobytes()


def test_other_types_rejected():
    with pytest.raises(TypeError):
        as_view("text")
