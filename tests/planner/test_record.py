"""Planned-record framing: round-trips and adversarial headers."""

from __future__ import annotations

import pytest

from repro.compressors import CodecError
from repro.compressors.base import CorruptionError, TruncationError
from repro.core.kernels import ScratchArena
from repro.core.linearize import Linearization
from repro.core.primacy import (
    PrimacyCompressor,
    PrimacyConfig,
    chunk_record_index_section,
)
from repro.planner import DEFAULT_CANDIDATES, Candidate
from repro.planner.record import (
    decode_planned_record,
    encode_planned_record,
    is_planned_record,
    parse_planned_header,
)


def _planned(candidate: Candidate, payload: bytes, base: PrimacyConfig):
    comp = PrimacyCompressor(candidate.config(base), codec=candidate.backend())
    inner, stats, _ = comp.compress_chunk(payload)
    return encode_planned_record(candidate, inner), stats


class TestRoundTrip:
    @pytest.mark.parametrize("candidate", DEFAULT_CANDIDATES, ids=lambda c: c.label)
    def test_every_default_candidate_roundtrips(self, candidate, smooth_bytes):
        base = PrimacyConfig()
        payload = smooth_bytes[: 16 * 1024]
        record, _ = _planned(candidate, payload, base)
        assert is_planned_record(record)
        chunk, index = decode_planned_record(
            record, base.word_bytes, base.checksum, ScratchArena()
        )
        assert chunk == payload
        assert index is not None

    def test_header_fields_survive(self):
        cand = Candidate(
            codec="pylzo", high_bytes=3, linearization=Linearization.ROW
        )
        record = encode_planned_record(cand, b"inner-bytes")
        codec, high, lin, pos = parse_planned_header(record)
        assert codec == "pylzo"
        assert high == 3
        assert lin is Linearization.ROW
        assert bytes(record[pos:]) == b"inner-bytes"

    def test_index_section_recurses_into_inner_record(self, smooth_bytes):
        # The reader walks index chains through this helper; a planned
        # record must expose its *inner* record's inline index.
        base = PrimacyConfig()
        cand = Candidate(codec="pyzlib", high_bytes=1)
        record, _ = _planned(cand, smooth_bytes[: 16 * 1024], base)
        inline, index, _ = chunk_record_index_section(record, base.high_bytes)
        assert inline is True
        assert index is not None


class TestAdversarialHeaders:
    def test_empty_record(self):
        with pytest.raises(TruncationError):
            parse_planned_header(b"")

    def test_wrong_flags(self):
        with pytest.raises(CorruptionError):
            parse_planned_header(bytes([0x01]) + b"rest")

    def test_truncated_codec_name(self):
        record = bytes([0x02, 10]) + b"py"  # promises 10 name bytes
        with pytest.raises(TruncationError):
            parse_planned_header(record)

    @pytest.mark.parametrize(
        "head",
        [bytes([0x02]), bytes([0x02, 4]) + b"null"],
        ids=["codec-name-length", "split-width"],
    )
    def test_uvarint_fields_are_typed(self, head):
        # Ten continuation bytes are too long to be a uvarint at all; a
        # record ending inside one is cut short.
        with pytest.raises(CorruptionError) as err:
            parse_planned_header(head + b"\xff" * 10 + b"\x01")
        assert not isinstance(err.value, TruncationError)
        with pytest.raises(TruncationError):
            parse_planned_header(head + b"\x80")

    def test_non_ascii_codec_name(self):
        record = bytes([0x02, 2, 0xFF, 0xFE, 1, 0])
        with pytest.raises(CorruptionError):
            parse_planned_header(record)

    def test_split_width_out_of_range(self):
        record = bytes([0x02, 4]) + b"null" + bytes([7, 0])
        with pytest.raises(CorruptionError):
            parse_planned_header(record)

    def test_missing_linearization_byte(self):
        record = bytes([0x02, 4]) + b"null" + bytes([2])
        with pytest.raises(TruncationError):
            parse_planned_header(record)

    def test_bad_linearization_byte(self):
        record = bytes([0x02, 4]) + b"null" + bytes([2, 9])
        with pytest.raises(CorruptionError):
            parse_planned_header(record)

    def test_unknown_codec_is_typed(self):
        record = bytes([0x02, 7]) + b"no-such" + bytes([2, 0]) + b"x"
        with pytest.raises(CodecError):
            decode_planned_record(record, 8, True, ScratchArena())

    def test_corrupt_inner_record_is_typed(self, smooth_bytes):
        base = PrimacyConfig()
        cand = Candidate(codec="pyzlib", high_bytes=2)
        record, _ = _planned(cand, smooth_bytes[:8192], base)
        broken = bytearray(record)
        broken[len(broken) // 2] ^= 0xFF
        with pytest.raises(CodecError):
            decode_planned_record(
                bytes(broken), base.word_bytes, base.checksum, ScratchArena()
            )
