"""Tests for byte-level linearization."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.linearize import Linearization, column_linearize, row_linearize
from tests.oracles import delinearize


@pytest.fixture
def matrix():
    return np.arange(24, dtype=np.uint8).reshape(6, 4)


class TestLinearize:
    def test_row_is_natural_order(self, matrix):
        assert row_linearize(matrix) == matrix.tobytes()

    def test_column_is_transpose(self, matrix):
        assert column_linearize(matrix) == matrix.T.copy().tobytes()

    def test_column_groups_columns(self):
        m = np.array([[1, 2], [1, 2], [1, 2]], dtype=np.uint8)
        assert column_linearize(m) == b"\x01\x01\x01\x02\x02\x02"

    @pytest.mark.parametrize("order", list(Linearization))
    def test_roundtrip(self, matrix, order):
        data = (
            column_linearize(matrix)
            if order is Linearization.COLUMN
            else row_linearize(matrix)
        )
        out = delinearize(data, *matrix.shape, order)
        assert np.array_equal(out, matrix)

    def test_column_creates_runs_on_id_data(self):
        """Column order turns low-ID dominance into 0-byte runs (Sec II-D)."""
        rng = np.random.default_rng(0)
        ids = rng.zipf(1.5, 1000).clip(0, 500).astype(np.uint16)
        m = np.column_stack([(ids >> 8).astype(np.uint8), (ids & 0xFF).astype(np.uint8)])
        col = np.frombuffer(column_linearize(m), dtype=np.uint8)
        row = np.frombuffer(row_linearize(m), dtype=np.uint8)
        runs_col = np.count_nonzero(np.diff(col) != 0)
        runs_row = np.count_nonzero(np.diff(row) != 0)
        assert runs_col < runs_row

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            delinearize(b"\x00" * 10, 3, 4, Linearization.ROW)

    def test_dtype_validation(self):
        with pytest.raises(ValueError):
            row_linearize(np.zeros((2, 2), dtype=np.int64))
