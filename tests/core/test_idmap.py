"""Tests for frequency analysis and the ID mapping."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compressors import CodecError
from repro.core.idmap import FrequencyIndex, IdMapper
from tests.oracles import invert_ids


def _high_matrix(seqs: list[int]) -> np.ndarray:
    """Build an N x 2 high matrix from 16-bit sequence values."""
    arr = np.asarray(seqs, dtype=np.uint32)
    return np.column_stack(
        [(arr >> 8).astype(np.uint8), (arr & 0xFF).astype(np.uint8)]
    )


class TestFrequencyAnalysis:
    def test_sequences_packing(self):
        mapper = IdMapper(seq_bytes=2)
        high = _high_matrix([0x3FF0, 0x0001, 0xFFFF])
        assert mapper.sequences(high).tolist() == [0x3FF0, 0x0001, 0xFFFF]

    def test_frequencies_histogram(self):
        mapper = IdMapper(seq_bytes=2)
        high = _high_matrix([5, 5, 5, 9, 9, 100])
        freq = mapper.frequencies(mapper.sequences(high))
        assert freq[5] == 3 and freq[9] == 2 and freq[100] == 1
        assert freq.sum() == 6

    def test_most_frequent_gets_id_zero(self):
        mapper = IdMapper(seq_bytes=2)
        high = _high_matrix([7] * 10 + [3] * 5 + [9] * 1)
        index = mapper.build_index(high)
        assert index.values.tolist() == [7, 3, 9]

    def test_frequency_ties_break_by_ascending_sequence(self):
        mapper = IdMapper(seq_bytes=2)
        high = _high_matrix([300, 200, 100] * 4)  # all equal frequency
        index = mapper.build_index(high)
        assert index.values.tolist() == [100, 200, 300]

    def test_index_covers_exactly_present_values(self):
        mapper = IdMapper(seq_bytes=2)
        high = _high_matrix([1, 2, 2, 3])
        index = mapper.build_index(high)
        assert set(index.values.tolist()) == {1, 2, 3}


class TestMapping:
    def test_apply_invert_roundtrip(self):
        rng = np.random.default_rng(0)
        mapper = IdMapper(seq_bytes=2)
        high = rng.integers(0, 256, (5000, 2), dtype=np.uint8)
        index = mapper.build_index(high)
        ids, used = mapper.apply(high, index)
        assert used is index  # complete index: no extension
        assert np.array_equal(invert_ids(ids, index, mapper.seq_bytes), high)

    def test_mapping_is_bijective(self):
        mapper = IdMapper(seq_bytes=2)
        high = _high_matrix([10, 20, 10, 30, 20, 10])
        index = mapper.build_index(high)
        ids, _ = mapper.apply(high, index)
        id_vals = (ids[:, 0].astype(int) << 8) | ids[:, 1]
        # Same sequence -> same ID; different -> different.
        assert id_vals[0] == id_vals[2] == id_vals[5]
        assert len({id_vals[0], id_vals[1], id_vals[3]}) == 3

    def test_ids_concentrate_near_zero(self):
        """The point of PRIMACY: high byte of most IDs is zero."""
        rng = np.random.default_rng(1)
        seqs = rng.zipf(1.5, 20000).clip(0, 1800).astype(np.uint32)
        mapper = IdMapper(seq_bytes=2)
        high = _high_matrix(seqs.tolist())
        index = mapper.build_index(high)
        ids, _ = mapper.apply(high, index)
        assert (ids[:, 0] == 0).mean() > 0.9

    def test_extension_path(self):
        mapper = IdMapper(seq_bytes=2)
        base = mapper.build_index(_high_matrix([1, 1, 2]))
        high = _high_matrix([1, 2, 99, 50, 99])
        ids, used = mapper.apply(high, base)
        assert used.n_unique == 4
        # Extensions append after existing IDs, ascending.
        assert used.values.tolist() == [1, 2, 50, 99]
        assert np.array_equal(invert_ids(ids, used, mapper.seq_bytes), high)

    def test_invert_rejects_out_of_range_id(self):
        mapper = IdMapper(seq_bytes=2)
        index = mapper.build_index(_high_matrix([1, 2]))
        bad = np.array([[0, 7]], dtype=np.uint8)  # ID 7 > n_unique
        with pytest.raises(CodecError):
            invert_ids(bad, index, mapper.seq_bytes)

    def test_seq_bytes_one(self):
        mapper = IdMapper(seq_bytes=1)
        high = np.array([[3], [3], [5]], dtype=np.uint8)
        index = mapper.build_index(high)
        ids, _ = mapper.apply(high, index)
        assert np.array_equal(invert_ids(ids, index, mapper.seq_bytes), high)

    def test_seq_bytes_validation(self):
        with pytest.raises(ValueError):
            IdMapper(seq_bytes=0)
        with pytest.raises(ValueError):
            IdMapper(seq_bytes=4)

    @given(st.lists(st.integers(0, 0xFFFF), min_size=1, max_size=500))
    @settings(max_examples=50, deadline=None)
    def test_property_roundtrip(self, seqs):
        mapper = IdMapper(seq_bytes=2)
        high = _high_matrix(seqs)
        index = mapper.build_index(high)
        ids, _ = mapper.apply(high, index)
        assert np.array_equal(invert_ids(ids, index, mapper.seq_bytes), high)


class TestIndexSerialization:
    def test_roundtrip(self):
        index = FrequencyIndex(
            values=np.array([100, 5, 65535], dtype=np.uint32), seq_bytes=2
        )
        blob = index.serialize()
        restored, pos = FrequencyIndex.deserialize(blob)
        assert pos == len(blob)
        assert restored.values.tolist() == [100, 5, 65535]
        assert restored.seq_bytes == 2

    def test_truncated_rejected(self):
        index = FrequencyIndex(values=np.arange(10, dtype=np.uint32), seq_bytes=2)
        blob = index.serialize()
        with pytest.raises(CodecError):
            FrequencyIndex.deserialize(blob[:-3])

    def test_duplicate_values_rejected(self):
        from repro.util.varint import encode_uvarint

        blob = (
            encode_uvarint(2)
            + encode_uvarint(2)
            + np.array([7, 7], dtype=">u2").tobytes()
        )
        with pytest.raises(CodecError, match="duplicate"):
            FrequencyIndex.deserialize(blob)

    def test_lookup_table(self):
        index = FrequencyIndex(values=np.array([9, 4], dtype=np.uint32), seq_bytes=2)
        table = index.lookup_table()
        assert table[9] == 0 and table[4] == 1
        assert table[0] == -1

    def test_metadata_cost_is_two_bytes_per_value(self):
        index = FrequencyIndex(
            values=np.arange(1000, dtype=np.uint32), seq_bytes=2
        )
        assert len(index.serialize()) <= 2 * 1000 + 4


class TestCorrelation:
    def test_identical_vectors(self):
        f = np.array([5, 3, 0, 1])
        assert IdMapper.frequency_correlation(f, f) == pytest.approx(1.0)

    def test_orthogonal_vectors(self):
        a = np.array([1, 0, 0])
        b = np.array([0, 1, 0])
        assert IdMapper.frequency_correlation(a, b) == pytest.approx(0.0)

    def test_zero_vectors(self):
        z = np.zeros(4)
        assert IdMapper.frequency_correlation(z, z) == 1.0
        assert IdMapper.frequency_correlation(z, np.array([1, 0, 0, 0])) == 0.0

    def test_scale_invariant(self):
        a = np.array([3, 1, 4])
        assert IdMapper.frequency_correlation(a, 10 * a) == pytest.approx(1.0)
