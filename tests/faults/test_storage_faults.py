"""Fault-injection suite for the PRIF/PRCK storage stack.

Contract under test (the fuzz contract from DESIGN.md):

* every single-byte flip of an artifact either raises a *typed*
  :class:`CodecError` subclass or leaves the decoded output bit-exact --
  never an ``IndexError``, ``struct.error``, or silent garbage;
* every truncation raises a typed error from an untouched reader;
* ``fsck`` localizes the damage; ``salvage`` recovers the reachable
  prefix of a truncated file;
* the parallel read path honors the same contract as the serial one;
* SIGKILL during a durable write never leaves a file a reader accepts
  as complete (marked ``faults``; excluded from the default run).
"""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.checkpoint import CheckpointReader, CheckpointWriter
from repro.compressors import CodecError
from repro.core import PrimacyCompressor, PrimacyConfig
from repro.datasets import generate_bytes
from repro.parallel import ParallelCompressor
from repro.storage import PrimacyFileReader, PrimacyFileWriter, fsck, salvage_prif

from tests.faults.injector import (
    flip_byte,
    iter_byte_flips,
    run_until_killed,
    truncation_points,
)

_CFG = PrimacyConfig(chunk_bytes=512, checksum=True)


@pytest.fixture(scope="module")
def prif_case():
    """A small multi-chunk PRIF file: (payload, blob, header_len, entries)."""
    payload = generate_bytes("obs_temp", 1536, seed=7)
    buf = io.BytesIO()
    with PrimacyFileWriter(buf, _CFG) as w:
        w.write(payload)
    blob = buf.getvalue()
    reader = PrimacyFileReader(io.BytesIO(blob))
    assert reader.n_chunks >= 3, "fixture must span several chunks"
    return payload, blob, reader._header_len, reader.info.chunks


@pytest.fixture(scope="module")
def prck_case():
    """A small PRCK checkpoint: (variables, blob)."""
    variables = {
        "temp": np.linspace(0.0, 1.0, 48, dtype=np.float32).reshape(6, 8),
        "count": np.arange(32, dtype=np.int64),
    }
    buf = io.BytesIO()
    with CheckpointWriter(buf, PrimacyConfig(chunk_bytes=256)) as w:
        w.write_step(0, variables)
    return variables, buf.getvalue()


class TestPrifByteFlips:
    def test_every_flip_detected_or_harmless(self, prif_case):
        """No single-byte flip may corrupt output or leak an untyped error."""
        payload, blob, _, _ = prif_case
        for offset, damaged in iter_byte_flips(blob):
            try:
                got = PrimacyFileReader(io.BytesIO(damaged)).read_all()
            except CodecError:
                continue  # typed rejection: contract satisfied
            assert got == payload, f"silent corruption from flip @ {offset}"

    def test_every_flip_flagged_by_fsck(self, prif_case):
        """Every byte of the file is covered by some integrity check."""
        _, blob, _, _ = prif_case
        for offset, damaged in iter_byte_flips(blob):
            report = fsck(io.BytesIO(damaged))
            assert not report.ok, f"fsck missed flip @ {offset}"
            assert report.first_divergence is not None

    def test_payload_flips_localized_to_chunk(self, prif_case):
        """Flips inside record payloads are pinned to that chunk."""
        _, blob, _, entries = prif_case
        for cid, entry in enumerate(entries):
            offset = entry.offset + entry.length // 2
            report = fsck(io.BytesIO(flip_byte(blob, offset)))
            regions = {f.region for f in report.findings}
            assert f"chunk[{cid}]" in regions, (
                f"flip @ {offset} in chunk {cid} reported as {regions}"
            )


class TestPrifTruncation:
    def test_every_truncation_raises_typed_error(self, prif_case):
        _, blob, header_len, _ = prif_case
        for cut in truncation_points(blob, body_start=header_len):
            with pytest.raises(CodecError):
                PrimacyFileReader(io.BytesIO(blob[:cut]))

    def test_salvage_recovers_prefix_at_every_truncation(self, prif_case):
        """Scan-mode salvage returns exactly the fully-present records."""
        payload, blob, header_len, entries = prif_case
        word = _CFG.word_bytes
        for cut in truncation_points(blob, stride=13, body_start=header_len):
            if cut < header_len:
                with pytest.raises(CodecError):
                    salvage_prif(io.BytesIO(blob[:cut]))
                continue
            result = salvage_prif(io.BytesIO(blob[:cut]))
            assert result.mode == "scan"
            expect_values = sum(
                e.n_values for e in entries if e.offset + e.length <= cut
            )
            assert result.values_recovered == expect_values
            assert result.data == payload[: expect_values * word]


class TestPrckFaults:
    def test_every_flip_detected_or_harmless(self, prck_case):
        variables, blob = prck_case
        for offset, damaged in iter_byte_flips(blob):
            try:
                reader = CheckpointReader(io.BytesIO(damaged))
                got = {name: reader.read(0, name) for name in variables}
            except CodecError:
                continue
            for name, array in variables.items():
                assert np.array_equal(got[name], array), (
                    f"silent corruption of {name!r} from flip @ {offset}"
                )

    def test_flips_flagged_by_fsck(self, prck_case):
        _, blob = prck_case
        for offset, damaged in iter_byte_flips(blob, stride=7):
            report = fsck(io.BytesIO(damaged))
            assert report.format == "PRCK" or offset < 4
            assert not report.ok, f"fsck missed flip @ {offset}"

    def test_truncations_raise_typed_errors(self, prck_case):
        _, blob = prck_case
        for cut in truncation_points(blob, stride=11):
            with pytest.raises(CodecError):
                CheckpointReader(io.BytesIO(blob[:cut]))


class TestParallelFaults:
    def test_sampled_flips_detected_or_harmless_in_pool(self):
        """Workers ship typed CodecErrors home; no EngineError leakage."""
        payload = generate_bytes("obs_temp", 8192, seed=3)
        cfg = PrimacyConfig(chunk_bytes=2048, checksum=True)
        blob, _ = PrimacyCompressor(cfg).compress(payload)
        stride = max(1, len(blob) // 40)
        with ParallelCompressor(cfg, workers=2) as dec:
            assert dec.decompress(blob) == payload  # pool sanity
            for offset, damaged in iter_byte_flips(blob, stride=stride):
                try:
                    got = dec.decompress(damaged)
                except CodecError:
                    continue
                assert got == payload, f"silent corruption from flip @ {offset}"


_KILL_SCRIPT = """
import numpy as np
from pathlib import Path
from repro.checkpoint import CheckpointWriter
from repro.core import PrimacyConfig

target = Path({target!r})
ready = Path({ready!r})
with CheckpointWriter(target, PrimacyConfig(chunk_bytes=4096)) as w:
    for step in range(100000):
        w.write_step(step, {{
            "temp": np.full(4096, step, dtype=np.float64),
            "vel": np.arange(4096, dtype=np.float64) * step,
        }})
        if step == 2:
            ready.touch()
"""


@pytest.mark.faults
class TestKillMidWrite:
    @pytest.mark.parametrize("kill_after", [0.0, 0.01, 0.05])
    def test_sigkill_never_publishes_partial_checkpoint(
        self, tmp_path, kill_after
    ):
        """The target name is either absent or a complete checkpoint."""
        target = tmp_path / f"state_{kill_after}.prck"
        ready = tmp_path / f"ready_{kill_after}"
        code = run_until_killed(
            _KILL_SCRIPT.format(target=str(target), ready=str(ready)),
            ready_file=ready,
            kill_after=kill_after,
        )
        assert code == -9
        if target.exists():  # only possible if close() won the race
            reader = CheckpointReader(target)
            for step in reader.steps():
                for name in reader.variables(step):
                    reader.read(step, name)
        else:
            # The staged temp file must never be mistaken for the target.
            leftovers = list(tmp_path.glob(target.name + "*"))
            assert all(p.name.endswith(".tmp") for p in leftovers)
