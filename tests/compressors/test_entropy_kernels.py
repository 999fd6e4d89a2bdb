"""Adversarial suite for the entropy coders.

Runs one corpus, built to hit the structural edges of LZ77 and the BWT
stack, through two contracts:

* **BWT-stack byte-identity** -- the batch kernels of
  :mod:`repro.compressors.kernels` (``mtf_encode`` / ``mtf_decode`` /
  ``rle0_encode`` / ``rle0_decode`` / ``bwt_inverse``) are deterministic
  transforms and must match the reference output exactly, so whole
  ``pybzip`` streams are backend-independent.
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

from repro.compressors import bwt as bwtmod
from repro.compressors import kernels as batch
from repro.compressors.bwt import BwtCodec, bwt_transform
from repro.compressors.deflate import DeflateCodec


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
        ranks_ref = bwtmod.mtf_encode(last)
        ranks_bat = batch.mtf_encode(last)
        np.testing.assert_array_equal(ranks_bat, ranks_ref)
        syms_ref = bwtmod._rle0_encode(ranks_ref)
        syms_bat = batch.rle0_encode(ranks_ref)
        np.testing.assert_array_equal(syms_bat, syms_ref)
        np.testing.assert_array_equal(
            batch.rle0_decode(syms_ref, max_size=arr.size),
            bwtmod._rle0_decode(syms_ref),
        )
        np.testing.assert_array_equal(batch.mtf_decode(ranks_ref), last)
        np.testing.assert_array_equal(
            batch.bwt_inverse(last, primary), arr
        )


class TestCodecBackends:
    """Whole-codec behaviour: pybzip across ``kernels=`` backends, and
    the pyzlib round trip."""

    @pytest.mark.parametrize(("name", "data"), CORPUS, ids=CORPUS_IDS)
    def test_pybzip_streams_byte_identical(self, name, data):
        blob_bat = BwtCodec(kernels="batch").compress(data)
        blob_ref = BwtCodec(kernels="reference").compress(data)
        assert blob_bat == blob_ref
        assert BwtCodec(kernels="batch").decompress(blob_ref) == data
        assert BwtCodec(kernels="reference").decompress(blob_bat) == data

    @pytest.mark.parametrize(("name", "data"), CORPUS, ids=CORPUS_IDS)
    def test_pyzlib_roundtrip(self, name, data):
        for level in (1, 6, 9):
            codec = DeflateCodec(level=level)
            assert codec.decompress(codec.compress(data)) == data

    def test_backend_validation(self):
        with pytest.raises(ValueError):
            BwtCodec(kernels="simd")


class TestKernelEdgeCases:
    def test_rle0_decode_bounds_expansion(self):
        from repro.compressors.base import CodecError

        # RUNA digits decode to a huge zero run; the cap must trip
        # before any giant allocation.
        bomb = np.zeros(64, dtype=np.int64)  # 2^64-ish zeros
        with pytest.raises(CodecError):
            batch.rle0_decode(bomb, max_size=1 << 20)

    def test_empty_arrays(self):
        empty_u8 = np.zeros(0, dtype=np.uint8)
        empty_i64 = np.zeros(0, dtype=np.int64)
        assert batch.mtf_encode(empty_u8).size == 0
        assert batch.mtf_decode(empty_i64).size == 0
        assert batch.rle0_encode(empty_i64).size == 0
        assert batch.rle0_decode(empty_i64, max_size=0).size == 0
        assert batch.bwt_inverse(empty_u8, 0).size == 0
