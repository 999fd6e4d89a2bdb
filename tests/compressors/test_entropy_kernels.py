"""Adversarial suite for the entropy coders.

Runs one corpus, built to hit the structural edges of LZ77 and the BWT
stack, through two contracts:

* **BWT-stack byte-identity** -- the batch stages of
  :mod:`repro.compressors.bwt` (``mtf_encode`` / ``mtf_decode`` /
  ``rle0_encode`` / ``rle0_decode`` / ``bwt_inverse``) are deterministic
  transforms and must match the scalar oracles of ``tests/oracles.py``
  exactly, stage by stage and as whole ``pybzip`` streams.  Hypothesis
  properties extend the stage check past the corpus.
* **pyzlib round trip** -- ``DeflateCodec`` decodes its own output
  exactly at the fastest, default and lazy levels.

The corpus: byte-run soups, repeated-region soups (hash chains + long
extends), short-period strings (overlapping matches), incompressible
noise (stored blocks), mixed regimes, tiny/empty inputs, and ~32 KiB
inputs that switch regime near the end.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compressors import bwt
from repro.compressors.base import CodecError
from repro.compressors.bwt import BwtCodec, bwt_transform
from repro.compressors.deflate import DeflateCodec
from repro.compressors.huffman import encode_symbol_block
from repro.util.varint import encode_uvarint

from tests.oracles import (
    reference_bwt_inverse,
    reference_mtf_decode,
    reference_mtf_encode,
    reference_rle0_decode,
    reference_rle0_encode,
)


def _corpus() -> list[tuple[str, bytes]]:
    rng = random.Random(7)
    cases: list[tuple[str, bytes]] = []
    for n in (1, 3, 17, 1000, 65537):
        cases.append((f"run-{n}", b"A" * n))
    cases.append(
        (
            "run-soup",
            b"".join(
                bytes([rng.randrange(4)]) * rng.randrange(1, 40)
                for _ in range(1500)
            ),
        )
    )
    base = bytes(rng.randrange(256) for _ in range(512))
    cases.append(
        (
            "repeat-soup",
            b"".join(
                base[rng.randrange(0, 256) : rng.randrange(256, 512)]
                for _ in range(200)
            ),
        )
    )
    for p in (1, 2, 3, 4, 7, 15):
        pat = bytes(rng.randrange(256) for _ in range(p))
        cases.append((f"periodic-{p}", pat * (20000 // p)))
    cases.append(
        ("noise", bytes(rng.randrange(256) for _ in range(30000)))
    )
    mix = bytearray()
    for _ in range(150):
        r = rng.random()
        if r < 0.4:
            mix += bytes([rng.randrange(8)]) * rng.randrange(1, 300)
        elif r < 0.7:
            mix += bytes(
                rng.randrange(256) for _ in range(rng.randrange(1, 200))
            )
        else:
            mix += base[: rng.randrange(1, 512)]
    cases.append(("mixed", bytes(mix)))
    for s in (b"", b"a", b"ab", b"abc", b"abcd", b"aab", b"abcabc"):
        cases.append((f"tiny-{len(s)}-{s.decode() or 'empty'}", s))
    # ~32 KiB inputs: one periodic, two that switch between a byte run
    # and noise near the end.
    cases.append(("straddle-periodic", (b"xyz" * 11000)[:32769]))
    cases.append(
        (
            "straddle-run-noise",
            b"\x01" * 32767
            + bytes(rng.randrange(256) for _ in range(100)),
        )
    )
    cases.append(
        (
            "straddle-noise-run",
            bytes(rng.randrange(256) for _ in range(32700)) + b"\x09" * 5000,
        )
    )
    return cases


CORPUS = _corpus()
CORPUS_IDS = [name for name, _ in CORPUS]


@pytest.mark.parametrize(("name", "data"), CORPUS, ids=CORPUS_IDS)
class TestBwtStackByteIdentity:
    def test_stagewise(self, name, data):
        arr = np.frombuffer(data, dtype=np.uint8)
        last, primary = bwt_transform(arr)
        ranks_ref = reference_mtf_encode(last)
        np.testing.assert_array_equal(bwt.mtf_encode(last), ranks_ref)
        syms_ref = reference_rle0_encode(ranks_ref)
        np.testing.assert_array_equal(bwt.rle0_encode(ranks_ref), syms_ref)
        np.testing.assert_array_equal(
            bwt.rle0_decode(syms_ref, max_size=arr.size),
            reference_rle0_decode(syms_ref),
        )
        np.testing.assert_array_equal(bwt.mtf_decode(ranks_ref), last)
        np.testing.assert_array_equal(bwt.bwt_inverse(last, primary), arr)


def _oracle_pybzip(data: bytes, block_size: int) -> bytes:
    """A ``pybzip`` stream assembled from the oracle stages."""
    out = bytearray(encode_uvarint(len(data)))
    if not data:
        return bytes(out)
    blocks = [
        data[i : i + block_size] for i in range(0, len(data), block_size)
    ]
    out += encode_uvarint(len(blocks))
    for block in blocks:
        last, primary = bwt_transform(np.frombuffer(block, dtype=np.uint8))
        symbols = reference_rle0_encode(reference_mtf_encode(last))
        out += encode_uvarint(len(block))
        out += encode_uvarint(primary)
        out += encode_symbol_block(symbols, 258)
    return bytes(out)


class TestCodecBackends:
    """Whole-codec behaviour: pybzip against a stream built from the
    oracle stages, and the pyzlib round trip."""

    @pytest.mark.parametrize(("name", "data"), CORPUS, ids=CORPUS_IDS)
    def test_pybzip_streams_byte_identical(self, name, data):
        codec = BwtCodec(block_size=16384)
        blob = codec.compress(data)
        assert blob == _oracle_pybzip(data, 16384)
        assert codec.decompress(blob) == data

    @pytest.mark.parametrize(("name", "data"), CORPUS, ids=CORPUS_IDS)
    def test_pyzlib_roundtrip(self, name, data):
        for level in (1, 6, 9):
            codec = DeflateCodec(level=level)
            assert codec.decompress(codec.compress(data)) == data



class TestKernelEdgeCases:
    def test_rle0_decode_bounds_expansion(self):
        # RUNA digits decode to a huge zero run; the cap must trip
        # before any giant allocation.
        bomb = np.zeros(64, dtype=np.int64)  # 2^64-ish zeros
        with pytest.raises(CodecError):
            bwt.rle0_decode(bomb, max_size=1 << 20)

    def test_empty_arrays(self):
        empty_u8 = np.zeros(0, dtype=np.uint8)
        empty_i64 = np.zeros(0, dtype=np.int64)
        assert bwt.mtf_encode(empty_u8).size == 0
        assert bwt.mtf_decode(empty_i64).size == 0
        assert bwt.rle0_encode(empty_i64).size == 0
        assert bwt.rle0_decode(empty_i64, max_size=0).size == 0
        assert bwt.bwt_inverse(empty_u8, 0).size == 0


#: Byte runs of random lengths (the post-BWT shape) or plain random bytes.
_RUN_HEAVY = st.lists(
    st.tuples(st.integers(0, 255), st.integers(1, 300)), max_size=40
).map(lambda runs: b"".join(bytes([b]) * n for b, n in runs))
_BYTES = st.one_of(_RUN_HEAVY, st.binary(max_size=2000))

#: Expansion cap for decoding arbitrary symbol arrays: anything the
#: oracle could expand past it is refused by the batch decoder first.
_MAX_SIZE = 1 << 16


class TestBwtStagesMatchOracles:
    """Hypothesis properties: every batch stage equals its oracle."""

    @given(data=_BYTES)
    @settings(max_examples=150, deadline=None)
    def test_encode_stages(self, data):
        arr = np.frombuffer(data, dtype=np.uint8)
        last, primary = bwt_transform(arr)
        for stream in (arr, last):
            ranks = reference_mtf_encode(stream)
            np.testing.assert_array_equal(bwt.mtf_encode(stream), ranks)
            np.testing.assert_array_equal(bwt.mtf_decode(ranks), stream)
            symbols = reference_rle0_encode(ranks)
            np.testing.assert_array_equal(bwt.rle0_encode(ranks), symbols)
            # Every encoder output decodes exactly as the oracle does.
            np.testing.assert_array_equal(
                bwt.rle0_decode(symbols, max_size=ranks.size),
                reference_rle0_decode(symbols),
            )
        np.testing.assert_array_equal(
            bwt.bwt_inverse(last, primary), reference_bwt_inverse(last, primary)
        )

    @given(
        last=st.binary(min_size=1, max_size=2000),
        primary=st.integers(0, 1999),
    )
    @settings(max_examples=100, deadline=None)
    def test_bwt_inverse_on_any_column(self, last, primary):
        # Not every byte string is a BWT output: the LF mapping may
        # split into several cycles.  Both walks follow it the same way.
        col = np.frombuffer(last, dtype=np.uint8)
        primary %= col.size
        np.testing.assert_array_equal(
            bwt.bwt_inverse(col, primary), reference_bwt_inverse(col, primary)
        )

    @given(ranks=st.lists(st.integers(0, 255), max_size=2000))
    @settings(max_examples=100, deadline=None)
    def test_mtf_decode_on_any_ranks(self, ranks):
        arr = np.array(ranks, dtype=np.int64)
        np.testing.assert_array_equal(
            bwt.mtf_decode(arr), reference_mtf_decode(arr)
        )

    @given(
        symbols=st.lists(
            st.one_of(st.integers(0, 1), st.integers(-2, 260)), max_size=300
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_rle0_decode_on_any_symbols(self, symbols):
        arr = np.array(symbols, dtype=np.int64)
        try:
            out = bwt.rle0_decode(arr, max_size=_MAX_SIZE)
        except CodecError:
            return  # refused: negative symbol, overlong run or too big
        np.testing.assert_array_equal(out, reference_rle0_decode(arr))
