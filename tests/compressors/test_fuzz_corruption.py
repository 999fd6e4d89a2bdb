"""Failure injection: corrupt compressed streams must fail *cleanly*.

Contract: ``decompress`` on malformed input either returns bytes (silent
mis-decode is permitted only for codecs without integrity checks) or
raises ``CodecError``.  It must never raise anything else (ValueError,
IndexError, OverflowError, ...), hang, or crash the interpreter -- a
corrupted checkpoint must not take the analysis pipeline down with it.

The PRIMACY container additionally carries Adler-32 chunk checksums, so
single-byte payload corruption must be *detected*, not just survived.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compressors import CodecError, available_codecs, get_codec
from repro.datasets import generate_bytes

_ALLOWED = (CodecError,)
_TRIALS = 60


@pytest.fixture(scope="module")
def sample() -> bytes:
    return generate_bytes("obs_temp", 2048, seed=0)


def _corruptions(blob: bytes, rng: np.random.Generator):
    """Yield corrupted variants: bit flips, truncations, burst damage."""
    for trial in range(_TRIALS):
        corrupted = bytearray(blob)
        mode = trial % 3
        if mode == 0 and len(corrupted) > 1:
            pos = int(rng.integers(0, len(corrupted)))
            corrupted[pos] ^= int(rng.integers(1, 256))
        elif mode == 1:
            corrupted = corrupted[: int(rng.integers(0, len(corrupted)))]
        else:
            for _ in range(5):
                pos = int(rng.integers(0, len(corrupted)))
                corrupted[pos] ^= int(rng.integers(1, 256))
        yield bytes(corrupted)


@pytest.mark.parametrize("name", available_codecs())
def test_corruption_fails_cleanly(name, sample):
    codec = get_codec(name)
    blob = codec.compress(sample)
    import zlib as _zlib

    rng = np.random.default_rng(_zlib.crc32(name.encode()))
    for corrupted in _corruptions(blob, rng):
        try:
            codec.decompress(corrupted)
        except _ALLOWED:
            pass  # clean failure


@pytest.mark.parametrize("name", ["fpzip", "shuffle", "fpc", "rangecoder"])
def test_every_cut_and_flip_raises_only_codec_errors(name):
    # Every truncation and every byte flip (xor 0x01, 0x80, 0xFF) of the
    # stream of 256 bytes of obs_temp: decompress raises a CodecError, or
    # returns bytes -- the exact input for a cut stream.  A cut or flipped
    # uvarint header, an fpzip payload shorter than its length field and
    # a non-ascii shuffle backend name used to escape as ValueError, and
    # a rangecoder stream cut by 1-5 bytes decoded to wrong bytes.
    codec = get_codec(name)
    sample = generate_bytes("obs_temp", 32, seed=0)
    blob = codec.compress(sample)
    for cut in range(len(blob)):
        try:
            out = codec.decompress(blob[:cut])
        except CodecError:
            continue
        assert out == sample, cut
    for at in range(len(blob)):
        for mask in (0x01, 0x80, 0xFF):
            flipped = bytearray(blob)
            flipped[at] ^= mask
            try:
                codec.decompress(bytes(flipped))
            except CodecError:
                pass


def test_primacy_checksum_detects_payload_corruption(sample):
    """Flipping bytes inside chunk payloads must raise, not mis-decode."""
    codec = get_codec("primacy", chunk_bytes=8 * 1024)
    blob = bytearray(codec.compress(sample))
    rng = np.random.default_rng(1)
    detected = 0
    survived_identical = 0
    trials = 40
    for _ in range(trials):
        corrupted = bytearray(blob)
        # Stay away from the global header (first 32 bytes).
        pos = int(rng.integers(32, len(corrupted)))
        corrupted[pos] ^= int(rng.integers(1, 256))
        try:
            out = codec.decompress(bytes(corrupted))
        except CodecError:
            detected += 1
        else:
            if out == sample:
                survived_identical += 1  # hit padding / ignored bits
    # Every undetected corruption must have been semantically harmless.
    assert detected + survived_identical == trials
    assert detected > trials // 2


@pytest.mark.parametrize("name", ["pyzlib", "huffman", "primacy"])
def test_garbage_input_fails_cleanly(name):
    codec = get_codec(name)
    rng = np.random.default_rng(2)
    for size in (0, 1, 7, 100, 4096):
        garbage = rng.bytes(size)
        try:
            codec.decompress(garbage)
        except _ALLOWED:
            pass
