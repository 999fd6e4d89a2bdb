"""Tests for the canonical length-limited Huffman coder."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compressors import CodecError, get_codec, huffman
from repro.compressors.base import CorruptionError, TruncationError
from repro.compressors.huffman import (
    MAX_BITS,
    SYNC_SYMBOLS,
    HuffmanTable,
    canonical_codes,
    code_lengths,
    decode_symbol_block,
    encode_symbol_block,
)
from repro.util.bitio import pack_bits
from repro.util.varint import encode_uvarint


def reference_codes(lengths: np.ndarray) -> list[int]:
    """Canonical codes by the textbook walk: sorted by (length, symbol),
    each code is the previous one plus one, shifted to its length."""
    codes = [0] * lengths.size
    code, prev_len = 0, 0
    for sym in sorted(np.flatnonzero(lengths).tolist(), key=lambda s: (lengths[s], s)):
        code <<= int(lengths[sym]) - prev_len
        codes[sym] = code
        code += 1
        prev_len = int(lengths[sym])
    return codes


def reference_package_merge(
    freqs: np.ndarray, present: np.ndarray, max_bits: int
) -> np.ndarray:
    """The package-merge that builds every package as a symbol-count
    dict, kept as the oracle of the counting one."""
    lengths = np.zeros(freqs.size, dtype=np.int64)
    leaves = sorted(
        ((int(freqs[s]), {int(s): 1}) for s in present), key=lambda item: item[0]
    )
    merged = list(leaves)
    for _ in range(max_bits - 1):
        packages = []
        for i in range(0, len(merged) - 1, 2):
            w = merged[i][0] + merged[i + 1][0]
            counts = dict(merged[i][1])
            for sym, c in merged[i + 1][1].items():
                counts[sym] = counts.get(sym, 0) + c
            packages.append((w, counts))
        merged = sorted(leaves + packages, key=lambda item: item[0])
    take = 2 * present.size - 2
    for _, counts in merged[:take]:
        for sym, c in counts.items():
            lengths[sym] += c
    return lengths


def reference_decode(
    lengths: np.ndarray,
    stream: bytes,
    n_symbols: int,
    offsets: np.ndarray,
    sync: int,
) -> np.ndarray:
    """Serial table-walk decoder: the oracle for :meth:`HuffmanTable.decode`.

    Walks every sync block from its own stored offset through a flat
    ``MAX_BITS``-bit window table (a window no code matches decodes as
    symbol 0 with length 1) and raises :class:`CodecError` as soon as a
    symbol ends past the stream, so it agrees with the vectorized decoder
    on corrupted bits too.
    """
    if n_symbols == 0:
        return np.zeros(0, dtype=np.int32)
    if sync < 1:
        raise CodecError("invalid sync block size")
    if offsets.size != (n_symbols + sync - 1) // sync:
        raise CodecError("block offset table does not match symbol count")
    max_bit = 8 * len(stream)
    if n_symbols > max_bit:
        raise CodecError("more Huffman symbols than stream bits")
    if int(offsets.min()) < 0 or int(offsets.max()) > max_bit:
        raise CodecError("block offsets out of range")
    codes = reference_codes(lengths)
    table = [1] * (1 << MAX_BITS)  # (symbol << 8) | length
    for sym in np.flatnonzero(lengths).tolist():
        length = int(lengths[sym])
        lo = codes[sym] << (MAX_BITS - length)
        hi = (codes[sym] + 1) << (MAX_BITS - length)
        table[lo:hi] = [(sym << 8) | length] * (hi - lo)
    data = stream + b"\x00\x00\x00"
    shift_base = 24 - MAX_BITS
    mask = (1 << MAX_BITS) - 1
    out = np.empty(n_symbols, dtype=np.int32)
    for block, start in enumerate(offsets.tolist()):
        pos = start
        for i in range(block * sync, min((block + 1) * sync, n_symbols)):
            k = pos >> 3
            window = (
                (data[k] << 16) | (data[k + 1] << 8) | data[k + 2]
            ) >> (shift_base - (pos & 7))
            entry = table[window & mask]
            out[i] = entry >> 8
            pos += entry & 0xFF
            if pos > max_bit:
                raise CodecError("Huffman stream exhausted mid-symbol")
    return out


class TestCodeLengths:
    def test_empty_alphabet(self):
        assert code_lengths(np.zeros(256, np.int64)).sum() == 0

    def test_single_symbol_gets_length_one(self):
        freqs = np.zeros(256, np.int64)
        freqs[65] = 1000
        lengths = code_lengths(freqs)
        assert lengths[65] == 1
        assert lengths.sum() == 1

    def test_kraft_equality(self):
        rng = np.random.default_rng(0)
        freqs = rng.integers(0, 1000, 256)
        lengths = code_lengths(freqs)
        nz = lengths[lengths > 0]
        assert (2.0 ** (-nz)).sum() == pytest.approx(1.0)

    def test_respects_length_limit(self):
        # Exponential frequencies would need > MAX_BITS codes if unlimited.
        freqs = np.array([2**i for i in range(40)] + [0] * 216, dtype=np.int64)
        lengths = code_lengths(freqs)
        assert lengths.max() <= MAX_BITS

    def test_more_frequent_is_never_longer(self):
        freqs = np.array([1000, 100, 10, 1], dtype=np.int64)
        lengths = code_lengths(freqs)
        assert lengths[0] <= lengths[1] <= lengths[2] <= lengths[3]

    def test_cost_within_one_bit_of_entropy(self):
        rng = np.random.default_rng(1)
        freqs = rng.zipf(1.5, 100000).clip(1, 255)
        hist = np.bincount(freqs, minlength=256)
        lengths = code_lengths(hist)
        p = hist[hist > 0] / hist.sum()
        entropy = -(p * np.log2(p)).sum()
        avg_len = (hist * lengths).sum() / hist.sum()
        assert entropy <= avg_len <= entropy + 1.0

    def test_rejects_negative_frequencies(self):
        with pytest.raises(ValueError):
            code_lengths(np.array([-1, 5]))

    def test_rejects_oversized_alphabet(self):
        with pytest.raises(ValueError):
            code_lengths(np.ones(1 << 13, dtype=np.int64), max_bits=12)

    @given(st.lists(st.integers(0, 10000), min_size=2, max_size=80))
    @settings(max_examples=50, deadline=None)
    def test_property_kraft_holds(self, freq_list):
        freqs = np.array(freq_list, dtype=np.int64)
        lengths = code_lengths(freqs)
        nz = lengths[lengths > 0]
        if nz.size:
            assert (2.0 ** (-nz.astype(float))).sum() <= 1.0 + 1e-9
        # Present symbols always get codes; absent never do.
        assert np.all((lengths > 0) == (freqs > 0)) or (freqs > 0).sum() == 1


class TestPackageMerge:
    @given(
        st.lists(st.integers(0, 2**20), min_size=2, max_size=300),
        st.integers(1, 4),
        st.sampled_from([9, 10, 12]),
    )
    @settings(max_examples=150, deadline=None)
    def test_property_equals_reference(self, weights, spread, max_bits):
        # Skewed weights (powers of ``spread`` mixed in) and many ties, so
        # the length limit binds and equal weights meet across levels.
        freqs = np.array(
            [
                w >> (i % 17) if spread == 1 else spread ** (w % 23)
                for i, w in enumerate(weights)
            ],
            dtype=np.int64,
        )
        present = np.flatnonzero(freqs)
        if present.size < 2 or present.size > 1 << max_bits:
            return
        assert np.array_equal(
            huffman._package_merge(freqs, present, max_bits),
            reference_package_merge(freqs, present, max_bits),
        )

    def test_limited_lengths_of_a_skewed_stream(self):
        freqs = np.array([2**i for i in range(40)] + [1] * 200, dtype=np.int64)
        present = np.flatnonzero(freqs)
        assert np.array_equal(
            huffman._package_merge(freqs, present, MAX_BITS),
            reference_package_merge(freqs, present, MAX_BITS),
        )


class TestCanonicalCodes:
    def test_prefix_free(self):
        freqs = np.random.default_rng(2).integers(1, 100, 40)
        lengths = code_lengths(np.concatenate([freqs, np.zeros(216, np.int64)]))
        codes = canonical_codes(lengths)
        words = [
            format(int(codes[s]), f"0{int(lengths[s])}b")
            for s in np.flatnonzero(lengths)
        ]
        for i, a in enumerate(words):
            for j, b in enumerate(words):
                if i != j:
                    assert not b.startswith(a)

    def test_all_zero_lengths(self):
        assert canonical_codes(np.zeros(10, np.int64)).sum() == 0

    @given(st.lists(st.integers(0, 10000), min_size=1, max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_property_matches_reference_walk(self, freq_list):
        lengths = code_lengths(np.array(freq_list, dtype=np.int64))
        assert canonical_codes(lengths).tolist() == reference_codes(lengths)


class TestHuffmanTableRoundtrip:
    @pytest.mark.parametrize(
        "n", [1, 2, 100, SYNC_SYMBOLS - 1, SYNC_SYMBOLS, SYNC_SYMBOLS + 1, 50000]
    )
    def test_sizes_across_block_boundaries(self, n):
        rng = np.random.default_rng(n)
        symbols = rng.zipf(1.4, n).clip(0, 255).astype(np.int64)
        freqs = np.bincount(symbols, minlength=256)
        table = HuffmanTable.from_frequencies(freqs)
        stream, offsets = table.encode(symbols)
        out = table.decode(stream, n, offsets)
        assert np.array_equal(out, symbols)

    @given(
        st.lists(st.integers(0, 9), min_size=1, max_size=300),
        st.integers(1, 40),
        st.sampled_from([1, 2, 4, 8]),
    )
    @settings(max_examples=100, deadline=None)
    def test_slabs_encode_like_one_pass(self, symbols, slab, sync):
        # Each slab holds whole sync blocks; the joined stream and offsets
        # are those of one gather, one cumsum and one pack over all symbols.
        symbols = np.array(symbols)
        table = HuffmanTable.from_frequencies(np.bincount(symbols, minlength=10))
        sym_lengths = table.lengths[symbols]
        starts = np.cumsum(sym_lengths) - sym_lengths
        expect = pack_bits(table.codes[symbols], sym_lengths), starts[::sync]
        original = huffman._SLAB
        huffman._SLAB = slab
        try:
            stream, offsets = table.encode(symbols, sync)
            block = encode_symbol_block(symbols, 10)
        finally:
            huffman._SLAB = original
        assert stream == expect[0]
        assert np.array_equal(offsets, expect[1])
        assert block == encode_symbol_block(symbols, 10)

    def test_serialize_roundtrip(self):
        freqs = np.bincount(np.arange(50) % 7, minlength=256)
        table = HuffmanTable.from_frequencies(freqs)
        blob = table.serialize()
        restored, pos = HuffmanTable.deserialize(blob)
        assert pos == len(blob)
        assert np.array_equal(restored.lengths, table.lengths)
        assert np.array_equal(restored.codes, table.codes)

    def test_encode_rejects_uncoded_symbol(self):
        freqs = np.zeros(256, np.int64)
        freqs[1] = 10
        freqs[2] = 10
        table = HuffmanTable.from_frequencies(freqs)
        with pytest.raises(CodecError):
            table.encode(np.array([3]))

    def test_decode_rejects_bad_offsets(self):
        freqs = np.bincount(np.zeros(10, np.int64) + 5, minlength=256)
        freqs[7] = 5
        table = HuffmanTable.from_frequencies(freqs)
        symbols = np.array([5, 7] * 50)
        stream, offsets = table.encode(symbols)
        with pytest.raises(CodecError):
            table.decode(stream, 100, offsets[:-1] if offsets.size > 1 else np.array([99999]))

    def test_kraft_violation_rejected_on_deserialize(self):
        lengths = np.ones(256, dtype=np.uint8)  # 256 one-bit codes: invalid
        nibbles = (lengths[0::2] << 4) | lengths[1::2]
        blob = encode_uvarint(256) + nibbles.tobytes()
        with pytest.raises(CodecError, match="Kraft"):
            HuffmanTable.deserialize(blob)

    def test_barely_oversubscribed_table_rejected(self):
        # Kraft sum 1 + 2**-12, the smallest over-subscription there is.
        lengths = np.array([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 12, 12])
        table = HuffmanTable(lengths)
        with pytest.raises(CodecError, match="Kraft"):
            HuffmanTable.deserialize(table.serialize())

    def test_code_length_nibble_over_max_bits_rejected(self):
        blob = encode_uvarint(2) + bytes([0x1D])  # lengths 1 and 13
        with pytest.raises(CorruptionError, match="MAX_BITS"):
            HuffmanTable.deserialize(blob)

    def test_decoding_never_builds_codes(self, monkeypatch):
        symbols = np.arange(3000) % 37
        blob = encode_symbol_block(symbols, 256)

        def no_codes(lengths):
            raise AssertionError("canonical codes built on the decode path")

        monkeypatch.setattr(huffman, "canonical_codes", no_codes)
        out, _ = decode_symbol_block(blob)
        assert np.array_equal(out, symbols)


@st.composite
def coded_streams(draw):
    """A table, symbols that use every kind of code, and an encoding.

    Tables come from random frequencies over 1-300 symbols, from
    exponentially skewed frequencies (codes up to ``MAX_BITS`` long), or
    are incomplete codes built by hand (Kraft sum below one).
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    alphabet = draw(st.integers(1, 300))
    kind = draw(st.sampled_from(["random", "skewed", "incomplete"]))
    if kind == "skewed":
        alphabet = max(alphabet, 16)
        freqs = np.left_shift(1, np.minimum(np.arange(alphabet), 40))
        lengths = code_lengths(rng.permutation(freqs))
        assert lengths.max() == MAX_BITS
    else:
        lengths = code_lengths(rng.integers(0, 1000, alphabet) + (kind == "incomplete"))
        if kind == "incomplete":
            coded = np.flatnonzero(lengths)
            if coded.size > 1:
                lengths[rng.choice(coded, rng.integers(1, coded.size), replace=False)] = 0
            lengths[lengths > 0] += rng.integers(0, 2, int((lengths > 0).sum()))
            lengths = np.minimum(lengths, MAX_BITS)
            assert (np.left_shift(1, MAX_BITS - lengths[lengths > 0])).sum() < 1 << MAX_BITS
    coded = np.flatnonzero(lengths)
    if coded.size == 0:
        lengths[int(rng.integers(alphabet))] = 1
        coded = np.flatnonzero(lengths)
    n = draw(st.integers(1, 6000))
    sync = draw(st.integers(1, SYNC_SYMBOLS))
    symbols = rng.choice(coded, n)
    table = HuffmanTable(lengths)
    stream, offsets = table.encode(symbols, sync)
    return lengths, symbols, sync, stream, offsets


class TestDecoderMatchesReference:
    @given(
        coded_streams(),
        st.lists(st.integers(0, 2**31), max_size=4),
        st.integers(0, 3),
        st.sampled_from([huffman._CHASE_SLAB, 1, 5, 64]),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_equal_or_both_raise(self, case, flips, cut, slab):
        # Small chase slabs make the decoder chase the lanes in many
        # slabs of steps, as it does on large blocks.
        lengths, symbols, sync, stream, offsets = case
        damaged = bytearray(stream)
        for bit in flips:
            bit %= 8 * len(damaged)
            damaged[bit >> 3] ^= 0x80 >> (bit & 7)
        damaged = bytes(damaged[: len(damaged) - cut])
        original = huffman._CHASE_SLAB
        huffman._CHASE_SLAB = slab
        try:
            expected = reference_decode(lengths, damaged, symbols.size, offsets, sync)
        except CodecError:
            with pytest.raises(CodecError):
                HuffmanTable(lengths).decode(damaged, symbols.size, offsets, sync)
            return
        else:
            out = HuffmanTable(lengths).decode(damaged, symbols.size, offsets, sync)
        finally:
            huffman._CHASE_SLAB = original
        assert out.dtype == np.int32
        assert np.array_equal(out, expected)
        if not flips and not cut:
            assert np.array_equal(out, symbols)


class TestDecoderMemory:
    def test_run_parse_literal_block_temporaries_are_bounded(self, monkeypatch):
        # The largest Huffman block of a run-parse msg_sppm record: ~276K
        # literals in a 215 KiB stream.  The decoder's temporaries are the
        # stream's 17 bytes per byte (the stream, its windows, the per-bit
        # length table) and cache-sized slabs; a steps x blocks position
        # matrix (8 bytes per symbol) would break the bound.
        import tracemalloc

        from repro.core.primacy import PrimacyCompressor, PrimacyConfig
        from repro.datasets import generate_bytes

        config = PrimacyConfig(chunk_bytes=1 << 20)
        data = generate_bytes("msg_sppm", 131072, seed=2014)
        rle = get_codec("pyzlib", strategy="rle")
        record = PrimacyCompressor(config, codec=rle).compress_chunk(data)[0]
        blocks = []
        decode = HuffmanTable.decode

        def spy(table, *args):
            blocks.append((table, args))
            return decode(table, *args)

        monkeypatch.setattr(HuffmanTable, "decode", spy)
        assert PrimacyCompressor(config).decompress_chunk(record)[0] == data
        monkeypatch.undo()
        table, (stream, n_symbols, offsets, sync) = max(
            blocks, key=lambda block: block[1][1]
        )
        assert n_symbols > 250_000
        tracemalloc.start()
        try:
            out = table.decode(stream, n_symbols, offsets, sync)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.size == n_symbols
        assert peak < 17 * len(stream) + out.nbytes + (3 << 19)


class TestTruncatedStreams:
    @pytest.mark.parametrize("sync", [64, 1024])
    @pytest.mark.parametrize("n", [1500, 5000, 50000])
    def test_cut_stream_raises(self, n, sync):
        rng = np.random.default_rng(n + sync)
        symbols = rng.integers(0, 256, n)
        table = HuffmanTable.from_frequencies(np.bincount(symbols, minlength=256))
        stream, offsets = table.encode(symbols, sync)
        cut = stream[:-3]
        assert int(offsets.max()) <= 8 * len(cut)  # the offset check passes
        with pytest.raises(CodecError, match="exhausted"):
            table.decode(cut, n, offsets, sync)


class TestSymbolBlocks:
    def test_roundtrip_large_alphabet(self):
        rng = np.random.default_rng(3)
        symbols = rng.integers(0, 300, 5000)
        blob = encode_symbol_block(symbols, 300)
        out, pos = decode_symbol_block(blob)
        assert pos == len(blob)
        assert np.array_equal(out, symbols)

    def test_empty_block(self):
        blob = encode_symbol_block(np.zeros(0, np.int64), 256)
        out, _ = decode_symbol_block(blob)
        assert out.size == 0

    def test_out_of_alphabet_rejected(self):
        with pytest.raises(ValueError):
            encode_symbol_block(np.array([256]), 256)

    def test_truncated_stream_rejected(self):
        blob = encode_symbol_block(np.arange(100) % 9, 256)
        with pytest.raises(TruncationError):
            decode_symbol_block(blob[: len(blob) - 5])


def _encoded_blocks() -> list[bytes]:
    rng = np.random.default_rng(13)
    return [
        encode_symbol_block(rng.integers(0, 256, 40), 256),  # one sync block
        encode_symbol_block(rng.zipf(1.6, 2500).clip(0, 255), 256),  # 40 blocks
        encode_symbol_block(rng.integers(0, 300, 400), 300),  # alphabet > 256
    ]


class TestSymbolBlockCorruption:
    def test_flips_and_truncations_raise_only_codec_errors(self):
        for blob in _encoded_blocks():
            damaged = [blob[:cut] for cut in range(len(blob))]
            for i in range(len(blob)):
                for flip in (0x01, 0x80, 0xFF):
                    raw = bytearray(blob)
                    raw[i] ^= flip
                    damaged.append(bytes(raw))
            for data in damaged:
                try:
                    decode_symbol_block(data)
                except CodecError:
                    pass

    @staticmethod
    def _block(n_blocks: int, offset: int) -> bytes:
        """A 10-symbol block with the given offset-table header fields."""
        table = HuffmanTable.from_frequencies(np.ones(4, dtype=np.int64))
        stream, _ = table.encode(np.arange(10) % 4, 64)
        return (
            encode_uvarint(10)
            + table.serialize()
            + encode_uvarint(64)
            + encode_uvarint(n_blocks)
            + encode_uvarint(offset)
            + encode_uvarint(len(stream))
            + stream
        )

    def test_valid_header_decodes(self):
        out, _ = decode_symbol_block(self._block(1, 0))
        assert np.array_equal(out, np.arange(10) % 4)

    def test_huge_block_count_rejected_before_allocating(self):
        with pytest.raises(TruncationError):
            decode_symbol_block(self._block(1 << 62, 0))

    def test_huge_offset_rejected(self):
        with pytest.raises(CorruptionError, match="offsets out of range"):
            decode_symbol_block(self._block(1, 1 << 63))


class TestHuffmanCodec:
    @pytest.mark.parametrize(
        "data",
        [b"", b"x", b"aaaa", bytes(range(256)) * 4, b"\x00" * 10000],
        ids=["empty", "single", "run", "uniform", "zeros"],
    )
    def test_roundtrips(self, data):
        codec = get_codec("huffman")
        assert codec.decompress(codec.compress(data)) == data

    def test_skewed_data_compresses(self):
        rng = np.random.default_rng(4)
        data = rng.zipf(1.3, 100000).clip(0, 255).astype(np.uint8).tobytes()
        codec = get_codec("huffman")
        assert len(codec.compress(data)) < len(data)

    @given(st.binary(max_size=3000))
    @settings(max_examples=50, deadline=None)
    def test_property_roundtrip(self, data):
        codec = get_codec("huffman")
        assert codec.decompress(codec.compress(data)) == data
