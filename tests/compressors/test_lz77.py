"""Tests for the LZ77 tokenizer and reassembler."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compressors import CodecError
from repro.compressors.deflate import _LEVEL_CHAIN
from repro.compressors.lz77 import (
    MIN_MATCH,
    ParseStats,
    TokenStream,
    collect_parse_stats,
    reassemble,
    tokenize,
)

# --------------------------------------------------------------------- #
# Reference parse: the original scalar loops (Python-list hash table,   #
# one-byte quick check, 16-byte-then-per-byte match extension, per-     #
# position seeding, joined literal spans), kept as oracles for the      #
# table-driven ones.                                                    #
# --------------------------------------------------------------------- #

_HASH_BITS = 16
_HASH_SIZE = 1 << _HASH_BITS
_MULT = 2654435761


def _reference_hashes(data: bytes) -> list[int]:
    arr = np.frombuffer(data, dtype=np.uint8).astype(np.uint32)
    u32 = (
        arr[:-3]
        | (arr[1:-2] << np.uint32(8))
        | (arr[2:-1] << np.uint32(16))
        | (arr[3:] << np.uint32(24))
    )
    return ((u32 * np.uint32(_MULT)) >> np.uint32(32 - _HASH_BITS)).tolist()


def _reference_match_length(data: bytes, a: int, b: int, max_len: int) -> int:
    n = 0
    while n + 16 <= max_len and data[a + n : a + n + 16] == data[b + n : b + n + 16]:
        n += 16
    while n < max_len and data[a + n] == data[b + n]:
        n += 1
    return n


def _reference_parse(
    data: bytes,
    stats: ParseStats | None,
    *,
    max_chain: int,
    min_match: int,
    skip_trigger: int,
    lazy: bool,
) -> TokenStream:
    """The original plain parse, counting into ``stats`` when given (the
    original instrumented twin counted exactly these steps)."""
    if min_match < MIN_MATCH:
        raise ValueError(f"min_match must be >= {MIN_MATCH}")
    n = len(data)
    empty = np.zeros(0, dtype=np.int64)
    if n < min_match:
        if stats is not None:
            stats.input_bytes += n
            stats.literal_bytes += n
        return TokenStream(np.array([n], dtype=np.int64), empty, empty, bytes(data), n)

    hashes = _reference_hashes(data)
    n_hash = len(hashes)
    head = [-1] * _HASH_SIZE
    prev = [-1] * n_hash
    lit_runs: list[int] = []
    match_lens: list[int] = []
    match_dists: list[int] = []
    literal_spans: list[tuple[int, int]] = []
    work = 0

    def search(pos: int, cand: int, threshold: int) -> tuple[int, int]:
        nonlocal work
        best_len = threshold
        best_pos = -1
        depth = max_chain
        max_len = n - pos
        while cand >= 0 and depth > 0:
            work += 1
            if pos + best_len < n and data[cand + best_len] == data[pos + best_len]:
                length = _reference_match_length(data, cand, pos, max_len)
                work += length >> 4
                if length > best_len:
                    best_len = length
                    best_pos = cand
                    if length >= max_len:
                        break
            cand = prev[cand]
            depth -= 1
        return best_len, best_pos

    i = 0
    lit_start = 0
    miss = 0
    limit = n - min_match
    while i <= limit:
        work += 1
        hv = hashes[i]
        cand = head[hv]
        prev[i] = cand
        head[hv] = i
        best_len, best_pos = search(i, cand, min_match - 1)
        if best_pos >= 0 and lazy and i + 1 <= limit:
            peek_len, peek_pos = search(i + 1, head[hashes[i + 1]], best_len)
            if peek_pos >= 0 and peek_len > best_len:
                miss = 0
                i += 1
                continue
        if best_pos >= 0:
            lit_runs.append(i - lit_start)
            literal_spans.append((lit_start, i))
            match_lens.append(best_len)
            match_dists.append(i - best_pos)
            end = i + best_len
            stop = min(end, n_hash, i + 4096)
            work += max(stop - (i + 1), 0)
            for j in range(i + 1, stop):
                hj = hashes[j]
                prev[j] = head[hj]
                head[hj] = j
            i = end
            lit_start = end
            miss = 0
        else:
            miss += 1
            i += 1 + (miss >> skip_trigger)

    lit_runs.append(n - lit_start)
    literal_spans.append((lit_start, n))
    literals = b"".join(data[s:e] for s, e in literal_spans)
    if stats is not None:
        stats.input_bytes += n
        stats.literal_bytes += len(literals)
        stats.match_bytes += n - len(literals)
        stats.work += work
    return TokenStream(
        np.asarray(lit_runs, dtype=np.int64),
        np.asarray(match_lens, dtype=np.int64),
        np.asarray(match_dists, dtype=np.int64),
        literals,
        n,
    )


def reference_tokenize(
    data: bytes,
    *,
    max_chain: int = 16,
    min_match: int = MIN_MATCH,
    skip_trigger: int = 6,
    lazy: bool = False,
) -> TokenStream:
    """The original :func:`tokenize` loop."""
    return _reference_parse(
        data,
        None,
        max_chain=max_chain,
        min_match=min_match,
        skip_trigger=skip_trigger,
        lazy=lazy,
    )


def reference_tokenize_counted(
    data: bytes,
    stats: ParseStats,
    *,
    max_chain: int = 16,
    min_match: int = MIN_MATCH,
    skip_trigger: int = 6,
    lazy: bool = False,
) -> TokenStream:
    """The original ``_tokenize_counted`` loop."""
    return _reference_parse(
        data,
        stats,
        max_chain=max_chain,
        min_match=min_match,
        skip_trigger=skip_trigger,
        lazy=lazy,
    )


def assert_same_stream(a: TokenStream, b: TokenStream) -> None:
    assert a.literals == b.literals
    assert a.original_size == b.original_size
    for got, want in (
        (a.lit_runs, b.lit_runs),
        (a.match_lens, b.match_lens),
        (a.match_dists, b.match_dists),
    ):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


# --------------------------------------------------------------------- #
# Inputs that reach every parse path                                     #
# --------------------------------------------------------------------- #


def _collisions(kinds: int, count: int, seed: int) -> bytes:
    """``count`` words drawn from ``kinds`` distinct 4-byte words with one
    16-bit hash: they all land in one chain, and only a word compare
    tells them apart."""
    rng = np.random.default_rng(seed)
    inverse = pow(_MULT, -1, 1 << 32)
    target = int(rng.integers(0, _HASH_SIZE))
    words = [
        ((((target << 16) | low) * inverse) & 0xFFFFFFFF).to_bytes(4, "little")
        for low in range(kinds)
    ]
    return b"".join(words[k] for k in rng.integers(0, kinds, count))


def _random(low: int, high: int) -> st.SearchStrategy[bytes]:
    """Seeded random bytes, ``low..high`` long."""
    return st.tuples(st.integers(0, 2**32 - 1), st.integers(low, high)).map(
        lambda t: np.random.default_rng(t[0]).bytes(t[1])
    )


_SEGMENTS = st.one_of(
    st.binary(max_size=64),
    # Distance-1 runs, short ones and ones past the 4,096-position seed cap.
    st.tuples(st.integers(0, 255), st.integers(1, 300) | st.integers(4090, 9000)).map(
        lambda t: bytes([t[0]]) * t[1]
    ),
    # Periods 1-17: every short distance and overlapping copies.
    st.tuples(st.binary(min_size=1, max_size=17), st.integers(1, 2000)).map(
        lambda t: (t[0] * (t[1] // len(t[0]) + 1))[: t[1]]
    ),
    # Random stretches (the skip accelerator) and low-entropy ones.
    _random(100, 3000),
    st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 2000), st.integers(2, 4)).map(
        lambda t: np.random.default_rng(t[0])
        .integers(0, t[2], t[1], dtype=np.uint8)
        .tobytes()
    ),
    # Many hash collisions: long chains of distinct words.
    st.tuples(st.integers(2, 6), st.integers(20, 600), st.integers(0, 2**32 - 1)).map(
        lambda t: _collisions(*t)
    ),
)

#: Mixed stretches, a run ending 0-3 bytes before the buffer end, and
#: 0-8-byte inputs.
_INPUTS = st.one_of(
    st.lists(_SEGMENTS, min_size=1, max_size=4).map(b"".join),
    st.tuples(
        _SEGMENTS, st.integers(0, 255), st.integers(4, 40), st.binary(max_size=3)
    ).map(lambda t: t[0] + bytes([t[1]]) * t[2] + t[3]),
    st.binary(max_size=8),
)

#: Every ``pyzlib`` level's (chain depth, lazy), then min_match 5 and 6
#: and a zero-depth chain, greedy and lazy.
_SETTINGS = [
    {"max_chain": depth, "lazy": lazy}
    for depth, lazy in sorted(set(_LEVEL_CHAIN.values()))
] + [
    {"max_chain": 32, "min_match": 5},
    {"max_chain": 64, "min_match": 6, "lazy": True},
    {"max_chain": 16, "min_match": 6},
    {"max_chain": 0},
    {"max_chain": 0, "lazy": True},
]


class TestReferenceEquivalence:
    """Token streams and ParseStats against the original parse loops."""

    @pytest.mark.parametrize(
        "setting", _SETTINGS, ids=lambda s: "-".join(f"{k}{v}" for k, v in s.items())
    )
    @given(data=_INPUTS)
    @settings(max_examples=25, deadline=None)
    def test_property_equals_reference(self, setting, data):
        expected = reference_tokenize(data, **setting)
        assert_same_stream(tokenize(data, **setting), expected)
        reference_stats = ParseStats()
        assert_same_stream(
            reference_tokenize_counted(data, reference_stats, **setting), expected
        )
        with collect_parse_stats() as stats:
            assert_same_stream(tokenize(data, **setting), expected)
        assert stats == reference_stats

    def test_planted_paths(self):
        # One deterministic input per path the property aims at.
        rng = np.random.default_rng(15)
        collisions = _collisions(5, 3000, seed=15)
        cases = [
            b"",
            b"\x00" * 4,
            b"\x00" * 8,
            b"x" + b"\x00" * 9000 + b"y",  # distance-1 run past the seed cap
            b"ab" + b"\x00" * 5000,  # distance-1 run reaching the end
            *(rng.bytes(50) + b"\x07" * 40 + b"z" * k for k in range(4)),
            b"abcdefgh" * 1000,
            rng.bytes(300) * 4,  # distances of 300, lengths near 900
            collisions,
            rng.bytes(20000),
            bytes(range(256)) * 40,
        ]
        for data in cases:
            for setting in _SETTINGS:
                expected = reference_tokenize(data, **setting)
                assert_same_stream(tokenize(data, **setting), expected)
                reference_stats = ParseStats()
                reference_tokenize_counted(data, reference_stats, **setting)
                with collect_parse_stats() as stats:
                    tokenize(data, **setting)
                assert stats == reference_stats



class TestTokenize:
    def test_empty(self):
        stream = tokenize(b"")
        assert stream.n_matches == 0
        assert reassemble(stream) == b""

    def test_short_input_all_literal(self):
        stream = tokenize(b"ab")
        assert stream.n_matches == 0
        assert stream.literals == b"ab"

    def test_run_produces_overlapping_match(self):
        data = b"A" * 1000
        stream = tokenize(data)
        assert stream.n_matches >= 1
        # The bulk of the run must come from matches, not literals.
        assert len(stream.literals) < 10
        assert int(stream.match_dists.min()) >= 1

    def test_repeated_phrase_found(self):
        phrase = b"the quick brown fox "
        data = phrase * 50
        stream = tokenize(data)
        assert stream.n_matches >= 1
        assert int(stream.match_lens.max()) >= len(phrase)

    def test_incompressible_mostly_literal(self):
        data = np.random.default_rng(0).integers(0, 256, 20000, dtype=np.uint8).tobytes()
        stream = tokenize(data)
        assert len(stream.literals) > 0.9 * len(data)

    def test_min_match_respected(self):
        stream = tokenize(b"abcXabcYabcZ" * 20, min_match=5)
        if stream.n_matches:
            assert int(stream.match_lens.min()) >= 5

    def test_min_match_validation(self):
        with pytest.raises(ValueError):
            tokenize(b"xx", min_match=2)

    def test_max_chain_zero_disables_matching(self):
        data = b"hello hello hello hello hello"
        stream = tokenize(data, max_chain=0)
        assert stream.n_matches == 0
        assert reassemble(stream) == data


def reference_reassemble(stream: TokenStream) -> bytes:
    """The match-by-match expansion, kept as the oracle of the one-pass
    expansion of distance-1 streams."""
    stream.validate()
    out = bytearray()
    lp = 0
    for run, length, dist in zip(
        stream.lit_runs.tolist(),
        stream.match_lens.tolist(),
        stream.match_dists.tolist(),
    ):
        out += stream.literals[lp : lp + run]
        lp += run
        if dist > len(out):
            raise CodecError("match distance reaches before buffer start")
        for _ in range(length):
            out.append(out[-dist])
    out += stream.literals[lp:]
    return bytes(out)


#: Distance-1 token streams: (literal run, match length) pairs, the first
#: run possibly 0 (a match with nothing before it), consecutive matches
#: with no literals between them, and a trailing literal run.
_RUN_TOKENS = st.tuples(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(MIN_MATCH, MIN_MATCH + 9)),
        max_size=30,
    ),
    st.integers(0, 3),
    st.randoms(use_true_random=False),
)


class TestReassemble:
    @given(_RUN_TOKENS)
    @settings(max_examples=200, deadline=None)
    def test_property_distance_one_equals_reference(self, tokens):
        pairs, tail, rng = tokens
        runs = [run for run, _ in pairs] + [tail]
        lens = [length for _, length in pairs]
        stream = TokenStream(
            lit_runs=np.array(runs, dtype=np.int64),
            match_lens=np.array(lens, dtype=np.int64),
            match_dists=np.ones(len(lens), dtype=np.int64),
            literals=bytes(rng.randrange(4) for _ in range(sum(runs))),
            original_size=sum(runs) + sum(lens),
        )
        try:
            expect = reference_reassemble(stream)
        except CodecError:
            with pytest.raises(CodecError):
                reassemble(stream)
        else:
            assert reassemble(stream) == expect

    @pytest.mark.parametrize(
        "data",
        [
            b"",
            b"a",
            b"abcabcabcabc",
            b"x" * 5000,
            b"ab" * 3000,
            bytes(range(256)) * 20,
            b"mississippi " * 100,
        ],
    )
    def test_roundtrips(self, data):
        stream = tokenize(data)
        assert reassemble(stream) == reference_reassemble(stream) == data

    def test_roundtrip_float_data(self, noisy_doubles):
        assert reassemble(tokenize(noisy_doubles)) == noisy_doubles

    def test_invalid_distance_rejected(self):
        stream = TokenStream(
            lit_runs=np.array([1, 0]),
            match_lens=np.array([MIN_MATCH]),
            match_dists=np.array([5]),  # reaches before the start
            literals=b"a",
            original_size=1 + MIN_MATCH,
        )
        with pytest.raises(CodecError):
            reassemble(stream)

    def test_validate_catches_bad_shapes(self):
        stream = TokenStream(
            lit_runs=np.array([1]),
            match_lens=np.array([MIN_MATCH]),
            match_dists=np.array([1]),
            literals=b"a",
            original_size=5,
        )
        with pytest.raises(CodecError, match="one more entry"):
            stream.validate()

    def test_validate_catches_size_mismatch(self):
        stream = TokenStream(
            lit_runs=np.array([2, 0]),
            match_lens=np.array([MIN_MATCH]),
            match_dists=np.array([1]),
            literals=b"ab",
            original_size=99,
        )
        with pytest.raises(CodecError, match="cover"):
            stream.validate()

    def test_validate_catches_short_match(self):
        stream = TokenStream(
            lit_runs=np.array([2, 0]),
            match_lens=np.array([2]),
            match_dists=np.array([1]),
            literals=b"ab",
            original_size=4,
        )
        with pytest.raises(CodecError, match="MIN_MATCH"):
            stream.validate()

    @given(st.binary(max_size=4000))
    @settings(max_examples=60, deadline=None)
    def test_property_roundtrip(self, data):
        assert reassemble(tokenize(data)) == data

    @given(
        st.binary(min_size=1, max_size=64),
        st.integers(2, 50),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_periodic_roundtrip(self, block, reps):
        data = block * reps
        assert reassemble(tokenize(data)) == data


class TestLazyMatching:
    @pytest.mark.parametrize(
        "data",
        [b"aXbcdef abcdefgh " * 200, b"mississippi " * 300, b"x" * 2000],
    )
    def test_lazy_roundtrips(self, data):
        assert reassemble(tokenize(data, lazy=True)) == data

    def test_lazy_never_produces_worse_coverage(self):
        # Token streams must cover the input exactly under both modes.
        data = b"abcabcabdabcabc" * 100
        for lazy in (False, True):
            stream = tokenize(data, lazy=lazy)
            stream.validate()

    def test_lazy_prefers_longer_deferred_match(self):
        # 'bcdefgh' (7) at i+1 should beat 'abc' (shorter) at i.
        prefix = b"0123bcdefgh4567abc89"
        data = prefix + b"!abcdefgh!" * 4
        greedy = tokenize(data, lazy=False, max_chain=64)
        lazy = tokenize(data, lazy=True, max_chain=64)
        assert reassemble(lazy) == data
        if lazy.n_matches and greedy.n_matches:
            assert int(lazy.match_lens.max()) >= int(greedy.match_lens.max())

    @given(st.binary(max_size=2000))
    @settings(max_examples=30, deadline=None)
    def test_property_lazy_roundtrip(self, data):
        assert reassemble(tokenize(data, lazy=True)) == data


class TestParseStats:
    """The instrumented parse (collect_parse_stats) vs the plain parse."""

    @given(st.binary(max_size=3000), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_property_counted_parse_is_equivalent(self, data, lazy):
        plain = tokenize(data, lazy=lazy)
        with collect_parse_stats() as stats:
            counted = tokenize(data, lazy=lazy)
        assert_same_stream(plain, counted)
        assert stats.input_bytes == len(data)
        assert stats.literal_bytes + stats.match_bytes == len(data)
        assert stats.literal_bytes == len(plain.literals)

    def test_counters_are_deterministic(self):
        data = (b"abcdabcd" + bytes(range(64))) * 100
        runs = []
        for _ in range(2):
            with collect_parse_stats() as stats:
                tokenize(data)
            runs.append(
                (stats.work, stats.literal_bytes, stats.match_bytes)
            )
        assert runs[0] == runs[1]
        assert runs[0][0] > 0

    def test_counts_accumulate_across_parses(self):
        with collect_parse_stats() as stats:
            tokenize(b"mississippi " * 50)
            tokenize(b"mississippi " * 50)
        assert stats.input_bytes == 2 * len(b"mississippi " * 50)

    def test_nested_collection_restores_outer(self):
        with collect_parse_stats() as outer:
            tokenize(b"abab" * 100)
            with collect_parse_stats() as inner:
                tokenize(b"cdcd" * 100)
            tokenize(b"abab" * 100)
        assert inner.input_bytes == 400
        assert outer.input_bytes == 800

    def test_no_counting_outside_block(self):
        with collect_parse_stats() as stats:
            pass
        tokenize(b"mississippi " * 50)
        assert stats.input_bytes == 0

    def test_tiny_input_counts_as_literals(self):
        with collect_parse_stats() as stats:
            tokenize(b"ab")
        assert stats.input_bytes == 2
        assert stats.literal_bytes == 2
        assert stats.work == 0

    def test_compressible_needs_less_work_than_noise(self):
        rng = np.random.default_rng(11)
        noise = rng.integers(0, 256, 8192, dtype=np.uint8).tobytes()
        smooth = (b"abcdefgh" * 1024)[:8192]
        with collect_parse_stats() as noisy:
            tokenize(noise)
        with collect_parse_stats() as easy:
            tokenize(smooth)
        assert noisy.literal_bytes > easy.literal_bytes
        assert easy.match_bytes > noisy.match_bytes
