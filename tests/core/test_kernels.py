"""Fused-kernel oracle properties and ScratchArena reuse tests.

The fused kernels are the chunk pipeline's only implementation; the
matrix path they replaced lives on as oracles in ``tests/oracles.py``.
The pipeline must agree with it byte for byte on *every* input --
including the floating-point corner cases the ID mapper's frequency
assumptions say nothing about (denormals, NaN payload bits, infinities)
and ragged chunk tails -- and the arena must not leak state between
chunks of different geometry.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.compressors import Codec
from repro.core import (
    FrequencyIndex,
    IdMapper,
    IndexReusePolicy,
    PrimacyCompressor,
    PrimacyConfig,
    ScratchArena,
)
from repro.core.bytesplit import split_bytes, values_to_byte_matrix
from repro.core.kernels import (
    fill_high_from_seqs,
    ids_from_stream,
    linearize_ids,
    low_matrix_view,
    pack_sequences,
    raw_matrix,
)
from repro.core.linearize import Linearization, column_linearize, row_linearize
from repro.core.primacy import split_container

from tests.oracles import reference_apply, reference_decode_chunk, reference_id_stream


def _adversarial_payloads() -> dict[str, bytes]:
    """Float64 streams exercising the encodings frequency analysis hates."""
    rng = np.random.default_rng(7)
    denormals = rng.integers(1, 1 << 52, 256, dtype=np.uint64)  # exponent 0
    nan_payloads = (
        rng.integers(1, 1 << 52, 256, dtype=np.uint64)
        | np.uint64(0x7FF) << np.uint64(52)
        | rng.integers(0, 2, 256, dtype=np.uint64) << np.uint64(63)
    )
    infs = np.where(
        rng.integers(0, 2, 64, dtype=np.uint64).astype(bool),
        np.float64(np.inf).view(np.uint64),
        np.float64(-np.inf).view(np.uint64),
    )
    mixed = np.concatenate(
        [
            denormals,
            nan_payloads,
            infs,
            rng.normal(scale=1e300, size=128).view(np.uint64),
            np.zeros(64, dtype=np.uint64),
        ]
    )
    rng.shuffle(mixed)
    full = mixed.astype("<u8").tobytes()
    return {
        "denormals": denormals.astype("<u8").tobytes(),
        "nan-payloads": nan_payloads.astype("<u8").tobytes(),
        "infinities": infs.astype("<u8").tobytes(),
        "mixed": full,
        "ragged-tail": full + b"\x01\x02\x03",  # not a multiple of 8
        "tail-only": b"\xff" * 5,
        "empty": b"",
    }


_PAYLOADS = _adversarial_payloads()


class _SpyCodec(Codec):
    """Wraps the solver and records every buffer the pipeline hands it."""

    name = "spy"
    instrumented = False

    def __init__(self, inner: Codec) -> None:
        self.inner = inner
        self.inputs: list[bytes] = []

    def compress(self, data: bytes) -> bytes:
        self.inputs.append(bytes(data))
        return self.inner.compress(data)

    def decompress(self, data: bytes) -> bytes:
        return self.inner.decompress(data)


def _spied(config: PrimacyConfig) -> tuple[PrimacyCompressor, _SpyCodec]:
    comp = PrimacyCompressor(config)
    spy = _SpyCodec(comp._codec)
    comp._codec = spy
    return comp, spy


def _assert_container_matches_oracle(data: bytes, config: PrimacyConfig):
    """Each chunk's ID stream is the oracle's; the container round-trips.

    The first solver call of every chunk is its ID stream; ISOBAR makes
    a second call only when it kept compressible columns.  The reuse
    decision is read off the record flags, so the oracle maps each
    chunk through the same index the pipeline chose.
    """
    comp, spy = _spied(config)
    container, stats = comp.compress(data)
    records = split_container(container)[1]
    assert len(records) == len(stats.chunks)
    inline = [bool(record[0] & 0x01) for record in records]
    if inline and config.index_policy is not IndexReusePolicy.CORRELATED:
        per_chunk = config.index_policy is IndexReusePolicy.PER_CHUNK
        assert inline == [True] + [per_chunk] * (len(inline) - 1)
    pos = call = 0
    used = None
    for is_inline, chunk_stats in zip(inline, stats.chunks):
        chunk = data[pos : pos + chunk_stats.n_values * config.word_bytes]
        pos += len(chunk)
        stream, _, used = reference_id_stream(
            chunk, config, None if is_inline else used
        )
        assert spy.inputs[call] == stream
        assert used.n_unique == chunk_stats.n_unique
        call += 1 + (chunk_stats.low_compressible_in > 0)
    assert call == len(spy.inputs)
    assert PrimacyCompressor(config).decompress(container) == data
    return stats


class TestBackendEquivalence:
    """Whole containers: the fused pipeline against the oracle stream."""

    @pytest.mark.parametrize("policy", list(IndexReusePolicy))
    @pytest.mark.parametrize("name", sorted(_PAYLOADS))
    def test_containers_identical(self, policy, name):
        # Small chunks force multiple chunks per stream, exercising the
        # index reuse / extension paths of every policy.
        config = PrimacyConfig(chunk_bytes=1024, index_policy=policy)
        _assert_container_matches_oracle(_PAYLOADS[name], config)

    @pytest.mark.parametrize("linearization", list(Linearization))
    def test_linearizations_identical(self, linearization):
        config = PrimacyConfig(chunk_bytes=2048, linearization=linearization)
        _assert_container_matches_oracle(_PAYLOADS["mixed"], config)

    def test_extension_path_identical(self):
        """FIRST_CHUNK with new sequences in later chunks extends the index."""
        rng = np.random.default_rng(11)
        # Chunk 1 spans a narrow exponent range; chunk 2 a disjoint one,
        # so every chunk-2 sequence misses the reused index.
        chunk1 = rng.uniform(1.0, 2.0, 512)
        chunk2 = rng.uniform(1e200, 1e201, 512)
        data = np.concatenate([chunk1, chunk2]).astype("<f8").tobytes()
        config = PrimacyConfig(
            chunk_bytes=4096, index_policy=IndexReusePolicy.FIRST_CHUNK
        )
        stats = _assert_container_matches_oracle(data, config)
        assert stats.chunks[1].index_reused
        assert stats.chunks[1].n_unique > stats.chunks[0].n_unique


def _bits(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", x))[0]


_MANTISSA = st.integers(1, (1 << 52) - 1)
_WORD = st.tuples(
    st.one_of(
        _MANTISSA,  # denormal: exponent 0
        _MANTISSA.map(lambda m: (0x7FF << 52) | m),  # NaN payload
        st.just(0x7FF << 52),  # infinity
        st.just(0),  # zero
        st.floats(1.0, 2.0).map(_bits),  # normals, one exponent
        st.floats(allow_nan=False, allow_infinity=False).map(_bits),
    ),
    st.booleans(),  # sign
).map(lambda word: word[0] | (word[1] << 63))


def _bulk_words(seed: int, n: int) -> np.ndarray:
    """``n`` words of the same mix, drawn at random: with hundreds of
    distinct high-order sequences, IDs need more than one byte."""
    rng = np.random.default_rng(seed)
    kind = rng.integers(0, 6, n)
    mantissa = rng.integers(1, 1 << 52, n, dtype=np.uint64)
    exponent = rng.integers(1, 0x7FF, n, dtype=np.uint64)  # normals
    exponent[kind == 0] = 0  # denormals
    exponent[(kind == 1) | (kind == 2)] = 0x7FF  # NaN payloads, infinities
    mantissa[kind == 2] = 0
    exponent[kind == 3] = mantissa[kind == 3] = 0  # zeros
    exponent[kind == 4] = 0x3FF  # normals, one exponent
    sign = rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63)
    return sign | (exponent << np.uint64(52)) | mantissa


def _missing_index(fresh: FrequencyIndex) -> FrequencyIndex:
    """A reused index that misses: every other sequence of the chunk,
    the most frequent one included, left out, behind one absent value."""
    present = set(fresh.values.tolist())
    kept = fresh.values[1::2][::-1].tolist()
    absent = next(
        (v for v in range(1 << (8 * fresh.seq_bytes)) if v not in present),
        None,
    )
    values = kept if absent is None else [absent, *kept]
    return FrequencyIndex(
        values=np.array(values, dtype=np.uint32), seq_bytes=fresh.seq_bytes
    )


def _compress_chunk(chunk, config, index):
    """One chunk through the pipeline, reusing ``index`` unless ``None``;
    returns ``(record, id_stream, used_index)``.

    The compressor, with its 2^24-entry table at ``high_bytes=3``, dies
    here, so a failing example's traceback does not pin it.
    """
    comp, spy = _spied(config)
    state = None if index is None else (index, None)
    record, _, (used, _) = comp.compress_chunk(chunk, state)
    return record, spy.inputs[0], used


class TestChunkKernelOracle:
    """The fused compress and decode stages against the matrix path."""

    @given(
        words=st.lists(_WORD, max_size=64),
        bulk=st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2000)),
        high_bytes=st.integers(1, 3),
        linearization=st.sampled_from(list(Linearization)),
    )
    @settings(max_examples=60, deadline=None)
    def test_fused_stages_match_oracle(
        self, words, bulk, high_bytes, linearization
    ):
        mixed = np.concatenate(
            [np.array(words, dtype=np.uint64), _bulk_words(*bulk)]
        )
        assume(mixed.size)
        chunk = mixed.astype("<u8").tobytes()
        config = PrimacyConfig(
            codec="null",
            high_bytes=high_bytes,
            linearization=linearization,
            index_policy=IndexReusePolicy.FIRST_CHUNK,
        )
        fresh = reference_id_stream(chunk, config)
        for index in (None, _missing_index(fresh[2])):
            record, stream, used = _compress_chunk(chunk, config, index)
            ref_stream, ref_low, ref_used = (
                fresh if index is None
                else reference_id_stream(chunk, config, index)
            )
            assert stream == ref_stream
            assert np.array_equal(used.values, ref_used.values)
            raw = raw_matrix(chunk, config.word_bytes)
            assert np.array_equal(low_matrix_view(raw, high_bytes), ref_low)

            decoded, dec_index = PrimacyCompressor(config).decompress_chunk(
                record, index
            )
            ref_chunk, ref_index = reference_decode_chunk(record, config, index)
            assert decoded == ref_chunk == chunk
            assert np.array_equal(dec_index.values, ref_index.values)


class TestKernelUnits:
    """Each fused kernel against its naive formulation."""

    @pytest.fixture
    def raw(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=257).astype("<f8").tobytes()
        return data, raw_matrix(data, 8)

    @pytest.mark.parametrize("high_bytes", [1, 2, 3])
    def test_pack_sequences(self, raw, high_bytes):
        data, matrix = raw
        naive = IdMapper(high_bytes).sequences(
            split_bytes(values_to_byte_matrix(data, 8), high_bytes)[0]
        )
        fused = pack_sequences(matrix, high_bytes, ScratchArena())
        assert np.array_equal(fused, naive)

    @pytest.mark.parametrize("high_bytes", [1, 2, 3, 7, 8])
    def test_low_matrix_view(self, raw, high_bytes):
        data, matrix = raw
        naive = split_bytes(values_to_byte_matrix(data, 8), high_bytes)[1]
        view = low_matrix_view(matrix, high_bytes)
        assert np.array_equal(view, naive)
        if high_bytes < 8:
            assert view.base is not None  # a view, not a copy

    @pytest.mark.parametrize("order", list(Linearization))
    @pytest.mark.parametrize("seq_bytes", [1, 2, 3])
    def test_linearize_roundtrip(self, order, seq_bytes):
        rng = np.random.default_rng(5)
        ids = rng.integers(0, 1 << (8 * seq_bytes), 321).astype(np.int32)
        arena = ScratchArena()
        stream = linearize_ids(ids, seq_bytes, order, arena)
        mapper = IdMapper(seq_bytes)
        matrix = mapper._ids_to_bytes(ids.astype(np.int64))
        naive = (
            column_linearize(matrix)
            if order is Linearization.COLUMN
            else row_linearize(matrix)
        )
        assert stream == naive
        back = ids_from_stream(stream, ids.size, seq_bytes, order, arena)
        assert np.array_equal(back, ids)

    def test_ids_from_stream_rejects_bad_length(self):
        with pytest.raises(ValueError):
            ids_from_stream(b"\x00" * 7, 4, 2, Linearization.COLUMN, ScratchArena())

    @pytest.mark.parametrize("high_bytes", [1, 2, 3])
    def test_fill_high_inverts_pack(self, high_bytes):
        rng = np.random.default_rng(9)
        raw = rng.integers(0, 256, (100, 8), dtype=np.uint8)
        arena = ScratchArena()
        seqs = pack_sequences(raw, high_bytes, arena)
        out = np.zeros_like(raw)
        fill_high_from_seqs(seqs, high_bytes, out, arena)
        assert np.array_equal(out[:, 8 - high_bytes :], raw[:, 8 - high_bytes :])

    def test_apply_ids_matches_reference_on_miss(self):
        """Reuse-miss path: one gather, same IDs as the double-gather oracle."""
        mapper = IdMapper(2)
        seqs = np.array([7, 7, 3, 500, 3, 9999, 500, 7], dtype=np.uint32)
        index = FrequencyIndex(
            values=np.array([7, 3], dtype=np.uint32), seq_bytes=2
        )
        ref_matrix, ref_index = reference_apply(seqs, index)
        ids, used_index = mapper.apply_ids(seqs, index)
        assert np.array_equal(used_index.values, ref_index.values)
        assert np.array_equal(mapper._ids_to_bytes(ids.astype(np.int64)), ref_matrix)
        # The persistent table now serves the extended index without work.
        ids2, again = mapper.apply_ids(seqs, used_index)
        assert again is used_index
        assert np.array_equal(ids2, ids)


class TestScratchArena:
    def test_growth_and_reuse(self):
        arena = ScratchArena()
        a = arena.array("x", 100, np.int32)
        assert arena.allocations == 1
        b = arena.array("x", 50, np.int32)  # smaller request reuses
        assert arena.allocations == 1
        assert b.base is a.base or b.base is arena._buffers["x"]
        arena.array("x", 200, np.int32)  # growth reallocates
        assert arena.allocations == 2
        arena.array("y", 10)  # distinct name, distinct buffer
        assert arena.allocations == 3
        assert arena.nbytes >= 200 * 4 + 10

    def test_zero_and_negative(self):
        arena = ScratchArena()
        assert arena.array("z", 0).size == 0
        with pytest.raises(ValueError):
            arena.array("z", (-1,))

    def test_clear(self):
        arena = ScratchArena()
        arena.array("x", 64)
        arena.clear()
        assert arena.nbytes == 0
        arena.array("x", 64)
        assert arena.allocations == 2

    def test_no_state_leaks_between_shapes(self):
        """One arena-backed pipeline over varying chunk geometry matches
        fresh single-use pipelines on every payload."""
        rng = np.random.default_rng(13)
        shared = PrimacyCompressor(PrimacyConfig(chunk_bytes=4096))
        payloads = [
            rng.normal(size=n).astype("<f8").tobytes() + b"t" * tail
            for n, tail in [(700, 0), (64, 3), (511, 7), (1, 0), (0, 2), (700, 0)]
        ]
        for data in payloads:
            out, _ = shared.compress(data)
            fresh, _ = PrimacyCompressor(PrimacyConfig(chunk_bytes=4096)).compress(
                data
            )
            assert out == fresh
            assert shared.decompress(out) == data

    def test_steady_state_stops_allocating(self):
        rng = np.random.default_rng(17)
        comp = PrimacyCompressor(PrimacyConfig(chunk_bytes=4096))
        data = rng.normal(size=2048).astype("<f8").tobytes()
        blob, _ = comp.compress(data)
        comp.decompress(blob)
        allocations = comp.arena.allocations
        for _ in range(3):
            blob, _ = comp.compress(data)
            assert comp.decompress(blob) == data
        assert comp.arena.allocations == allocations

    def test_compressor_accepts_external_arena(self):
        arena = ScratchArena()
        comp = PrimacyCompressor(PrimacyConfig(chunk_bytes=4096), arena=arena)
        assert comp.arena is arena
        data = np.arange(512, dtype="<f8").tobytes()
        blob, _ = comp.compress(data)
        assert comp.decompress(blob) == data
        assert arena.allocations > 0
