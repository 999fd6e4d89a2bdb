"""Tests for the checkpoint/restart manager."""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.compressors import CodecError
from repro.checkpoint import CheckpointReader, CheckpointWriter
from repro.core import IndexReusePolicy, PrimacyConfig


@pytest.fixture
def fields():
    rng = np.random.default_rng(8)
    return {
        "phi": (np.cumsum(rng.normal(0, 0.01, (64, 64))) % 7.0).reshape(64, 64),
        "zeon": rng.normal(1.0, 0.1, 5000),
        "density": rng.normal(300.0, 5.0, (10, 20, 30)),
    }


def _write(fields, steps=(0, 10), config=None) -> bytes:
    buf = io.BytesIO()
    with CheckpointWriter(buf, config or PrimacyConfig(chunk_bytes=16 * 1024)) as w:
        for step in steps:
            w.write_step(step, {k: v + step for k, v in fields.items()})
    return buf.getvalue()


class TestWriterReader:
    def test_roundtrip_all_variables(self, fields):
        blob = _write(fields)
        reader = CheckpointReader(io.BytesIO(blob))
        assert reader.steps() == [0, 10]
        assert reader.variables() == ["density", "phi", "zeon"]
        for step in (0, 10):
            for name, orig in fields.items():
                got = reader.read(step, name)
                assert got.shape == orig.shape
                assert got.dtype == orig.dtype
                assert np.array_equal(got, orig + step)

    def test_read_range(self, fields):
        blob = _write(fields)
        reader = CheckpointReader(io.BytesIO(blob))
        flat = (fields["density"] + 10).reshape(-1)
        got = reader.read_range(10, "density", 100, 57)
        assert np.array_equal(got, flat[100:157])

    def test_meta(self, fields):
        reader = CheckpointReader(io.BytesIO(_write(fields)))
        meta = reader.meta(0, "phi")
        assert meta.shape == (64, 64)
        assert meta.n_values == 64 * 64
        assert meta.dtype == "float64"

    def test_unknown_variable(self, fields):
        reader = CheckpointReader(io.BytesIO(_write(fields)))
        with pytest.raises(KeyError):
            reader.read(0, "nope")
        with pytest.raises(KeyError):
            reader.read(5, "phi")

    def test_duplicate_rejected(self, fields):
        buf = io.BytesIO()
        with CheckpointWriter(buf) as w:
            w.write_variable(0, "phi", fields["phi"])
            with pytest.raises(ValueError, match="already written"):
                w.write_variable(0, "phi", fields["phi"])

    def test_float32_variables(self):
        arr = np.linspace(0, 1, 4000, dtype="<f4")
        buf = io.BytesIO()
        with CheckpointWriter(buf, PrimacyConfig(chunk_bytes=8 * 1024)) as w:
            w.write_variable(3, "temp32", arr)
        reader = CheckpointReader(io.BytesIO(buf.getvalue()))
        got = reader.read(3, "temp32")
        assert got.dtype == np.dtype("float32")
        assert np.array_equal(got, arr)

    def test_integer_variables(self):
        arr = np.arange(10000, dtype="<i8") * 3
        buf = io.BytesIO()
        with CheckpointWriter(buf) as w:
            w.write_variable(0, "ids", arr)
        reader = CheckpointReader(io.BytesIO(buf.getvalue()))
        assert np.array_equal(reader.read(0, "ids"), arr)

    @pytest.mark.parametrize(
        "config, workers, match",
        [
            # Each segment embeds a PRIF header, which cannot record
            # bit-plane ISOBAR: refused before the first variable.
            (PrimacyConfig(isobar_granularity="bit"), None, "isobar_granularity"),
            (PrimacyConfig(index_policy=IndexReusePolicy.FIRST_CHUNK), 2, "PER_CHUNK"),
        ],
        ids=["bit-isobar", "pipelined-reuse-chain"],
    )
    def test_refused_before_any_file(self, tmp_path, config, workers, match):
        with pytest.raises(ValueError, match=match):
            CheckpointWriter(tmp_path / "ckpt.prck", config, workers=workers)
        assert list(tmp_path.iterdir()) == []

    def test_non_numeric_rejected(self):
        with CheckpointWriter(io.BytesIO()) as w:
            with pytest.raises(ValueError):
                w.write_variable(0, "strings", np.array(["a", "b"]))

    def test_empty_checkpoint(self):
        buf = io.BytesIO()
        with CheckpointWriter(buf):
            pass
        reader = CheckpointReader(io.BytesIO(buf.getvalue()))
        assert reader.steps() == []
        assert reader.variables() == []

    def test_write_after_close_rejected(self, fields):
        w = CheckpointWriter(io.BytesIO())
        w.close()
        with pytest.raises(ValueError):
            w.write_variable(0, "phi", fields["phi"])

    def test_compresses(self, fields):
        blob = _write(fields, steps=(0,))
        raw = sum(v.nbytes for v in fields.values())
        assert len(blob) < raw

    def test_path_based_io(self, tmp_path, fields):
        path = tmp_path / "sim.prck"
        with CheckpointWriter(path) as w:
            w.write_step(0, fields)
        with CheckpointReader(path) as reader:
            assert np.array_equal(reader.read(0, "zeon"), fields["zeon"])

    def test_variables_filtered_by_step(self, fields):
        buf = io.BytesIO()
        with CheckpointWriter(buf) as w:
            w.write_variable(0, "phi", fields["phi"])
            w.write_variable(1, "zeon", fields["zeon"])
        reader = CheckpointReader(io.BytesIO(buf.getvalue()))
        assert reader.variables(0) == ["phi"]
        assert reader.variables(1) == ["zeon"]


class TestCorruption:
    def test_bad_magic(self):
        with pytest.raises(CodecError):
            CheckpointReader(io.BytesIO(b"JUNK" + bytes(40)))

    def test_missing_end_marker(self, fields):
        blob = bytearray(_write(fields, steps=(0,)))
        blob[-1] ^= 0xFF
        with pytest.raises(CodecError):
            CheckpointReader(io.BytesIO(bytes(blob)))
