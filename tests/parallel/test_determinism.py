"""Archive determinism: parallelism must never change the bytes.

The paper's pipeline is deterministic; so is the reproduction's -- and
the parallel engine fans chunks out but reassembles them in submit
order, so the same input with the same worker count must produce a
byte-identical archive every run, and the serial path must agree with
every parallel width.
"""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.core.primacy import PrimacyCompressor, PrimacyConfig
from repro.parallel import ParallelCompressor
from repro.storage import PrimacyFileWriter

CFG = PrimacyConfig(chunk_bytes=16 * 1024)


@pytest.fixture(scope="module")
def payload() -> bytes:
    rng = np.random.default_rng(97)
    smooth = np.cumsum(rng.normal(size=40 * 1024))
    return smooth.astype("<f8").tobytes() + rng.bytes(100)  # ragged tail


class TestCompressDeterminism:
    def test_three_runs_are_byte_identical(self, payload):
        archives = []
        for _ in range(3):
            with ParallelCompressor(CFG, workers=2) as comp:
                out, _ = comp.compress(payload)
            archives.append(out)
        assert archives[0] == archives[1] == archives[2]

    def test_parallel_matches_serial_any_width(self, payload):
        serial, _ = PrimacyCompressor(CFG).compress(payload)
        for workers in (1, 2, 3):
            with ParallelCompressor(CFG, workers=workers) as comp:
                out, _ = comp.compress(payload)
            assert out == serial, f"workers={workers} diverged from serial"

    def test_prif_writer_deterministic_across_runs(self, payload):
        blobs = []
        for _ in range(3):
            buf = io.BytesIO()
            with PrimacyFileWriter(buf, CFG, workers=2) as writer:
                writer.write(payload)
            blobs.append(buf.getvalue())
        assert blobs[0] == blobs[1] == blobs[2]

        serial_buf = io.BytesIO()
        with PrimacyFileWriter(serial_buf, CFG) as writer:
            writer.write(payload)
        assert serial_buf.getvalue() == blobs[0]


class TestDecompressDeterminism:
    def test_serial_and_parallel_decode_agree(self, payload):
        archive, _ = PrimacyCompressor(CFG).compress(payload)
        serial = PrimacyCompressor(CFG).decompress(archive)
        with ParallelCompressor(workers=2) as dec:
            parallel = dec.decompress(archive)
        assert serial == parallel == payload
