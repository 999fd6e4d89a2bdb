"""Format stability against the pinned golden corpus.

The artifacts under ``data/`` were produced by
:mod:`tests.golden.make_golden` and committed.  Today's decoder must
read them byte-exactly -- forever.  A failure here means a format break:
either revert it, or version the format and regenerate the corpus as
part of a deliberate migration.
"""

from __future__ import annotations

import hashlib
import io

import numpy as np
import pytest

from tests.golden import make_golden as gold


@pytest.fixture(scope="module")
def payload() -> bytes:
    return gold.PAYLOAD_PATH.read_bytes()


class TestPrifGolden:
    def test_decodes_byte_exactly(self, payload):
        from repro.storage import PrimacyFileReader

        with PrimacyFileReader(gold.PRIF_PATH) as reader:
            assert reader.read_all() == payload

    def test_pins_the_reuse_chain_path(self):
        from repro.storage import PrimacyFileReader

        with PrimacyFileReader(gold.PRIF_PATH) as reader:
            entries = reader.chunk_entries()
            assert len(entries) > 1
            # The corpus must keep exercising index-reuse chains; a
            # regenerated corpus that lost them would weaken this test.
            assert any(not e.inline_index for e in entries)
            assert entries[0].inline_index

    def test_random_access_matches(self, payload):
        from repro.storage import PrimacyFileReader

        with PrimacyFileReader(gold.PRIF_PATH) as reader:
            got = reader.read_values(1000, 300)
        assert got == payload[8 * 1000 : 8 * 1300]

    def test_reencode_is_byte_identical(self, payload):
        """The encoder is deterministic: same input, same config, same
        bytes.  Catches accidental format drift on the write side."""
        from repro.storage import PrimacyFileWriter

        buf = io.BytesIO()
        with PrimacyFileWriter(buf, gold.PRIF_CONFIG) as writer:
            writer.write(payload)
        assert buf.getvalue() == gold.PRIF_PATH.read_bytes()

    def test_fsck_accepts_the_corpus(self):
        from repro.storage.verify import fsck

        assert fsck(gold.PRIF_PATH).ok


class TestPrckGolden:
    def test_every_variable_decodes_exactly(self):
        from repro.checkpoint import CheckpointReader

        expected = gold.checkpoint_arrays()
        with CheckpointReader(gold.PRCK_PATH) as reader:
            assert reader.steps() == sorted(expected)
            for step, variables in expected.items():
                assert reader.variables(step) == sorted(variables)
                for name, arr in variables.items():
                    got = reader.read(step, name)
                    assert got.dtype == arr.dtype
                    assert got.shape == arr.shape
                    np.testing.assert_array_equal(got, arr)

    def test_reencode_is_byte_identical(self, tmp_path):
        out = tmp_path / "re.prck"
        gold.build_prck(out)
        assert out.read_bytes() == gold.PRCK_PATH.read_bytes()

    def test_fsck_accepts_the_corpus(self):
        from repro.storage.verify import fsck

        assert fsck(gold.PRCK_PATH).ok


class TestPlannedGolden:
    """Planned records (flag 0x02) and the ``pylzo`` stream bytes."""

    @pytest.fixture(scope="class")
    def planned_payload(self) -> bytes:
        return gold.PLANNED_PAYLOAD_PATH.read_bytes()

    def test_decodes_byte_exactly(self, planned_payload):
        from repro.core.primacy import PrimacyCompressor

        container = gold.PLANNED_PATH.read_bytes()
        assert PrimacyCompressor().decompress(container) == planned_payload

    def test_records_keep_the_pinned_decisions(self):
        from repro.core.primacy import iter_container_records, parse_container_header
        from repro.planner.candidates import Candidate
        from repro.planner.record import is_planned_record, parse_planned_header

        container = gold.PLANNED_PATH.read_bytes()
        labels = []
        for record in iter_container_records(
            container, parse_container_header(container)
        ):
            assert is_planned_record(record)
            codec, high_bytes, linearization, _ = parse_planned_header(record)
            labels.append(Candidate(codec, high_bytes, linearization).label)
        assert tuple(labels) == gold.PLANNED_LABELS
        # The corpus must keep pinning both pylzo split widths and pyzlib.
        assert {"pylzo/hb1/col", "pylzo/hb2/col", "pyzlib/hb2/col"} <= set(labels)

    def test_reencode_is_byte_identical(self, planned_payload):
        container, labels = gold.build_planned(planned_payload)
        assert tuple(labels) == gold.PLANNED_LABELS
        assert container == gold.PLANNED_PATH.read_bytes()


class TestMebibyteDigests:
    """Whole 1 MiB streams through ``pyzlib`` and ``pybzip``, pinned by digest.

    The golden chunks are 4-8 KiB, so they never reach the LZ77 parse's
    4,096-position seeding cap, a 128 KiB BWT block or a 1 MiB stream.
    These inputs are the six perfbench variables at 131,072 values each;
    their ``pyzlib`` bytes have been unchanged since the batch LZ77
    matcher was deleted, and their ``pybzip`` bytes are the same under
    the scalar BWT-stack loops and the batch stages.
    """

    VARIABLES = (
        "obs_temp",
        "msg_sppm",
        "num_plasma",
        "gts_phi_l",
        "flash_velx",
        "msg_bt",
    )
    STATIC = "74c87059d4f8f30135891ad8cb29265b5a1142191dc1f283594892805eb715b0"
    PLANNED = "802a97909b38241cb9becb28cc27332c1bc12367fe405ee6e528cc893e98084f"
    PYBZIP = "b2b64f285f877c10def374994659b6e1085b424624845d238dd9473e341475d5"

    @pytest.fixture(scope="class")
    def inputs(self) -> list[bytes]:
        from repro.datasets import generate_bytes

        return [generate_bytes(name, 131072, seed=1201) for name in self.VARIABLES]

    @staticmethod
    def _config(codec: str = "pyzlib"):
        from repro.core.primacy import PrimacyConfig

        return PrimacyConfig(codec=codec, chunk_bytes=1 << 20)

    @staticmethod
    def _static_digest(config, inputs) -> str:
        from repro.core.primacy import PrimacyCompressor

        compressor = PrimacyCompressor(config)
        blob = b"".join(compressor.compress(data)[0] for data in inputs)
        return hashlib.sha256(blob).hexdigest()

    def test_static_pyzlib_digest(self, inputs):
        assert self._static_digest(self._config(), inputs) == self.STATIC

    def test_static_pybzip_digest(self, inputs):
        digest = self._static_digest(self._config("pybzip"), inputs)
        assert digest == self.PYBZIP

    def test_planned_digest(self, inputs):
        from repro.planner.candidates import PlannerConfig
        from repro.planner.compressor import PlannedCompressor

        config = PlannerConfig(base=self._config())
        with PlannedCompressor(config, workers=1) as planned:
            blob = b"".join(planned.compress(data)[0] for data in inputs)
        assert hashlib.sha256(blob).hexdigest() == self.PLANNED
