"""PRIMACY over ``pyzlib`` is held to PRIMACY over the real zlib.

The paper ran PRIMACY in front of C zlib; this repo substitutes the
from-scratch ``pyzlib`` (DESIGN.md §2).  Python's stdlib ``zlib`` *is*
that C library, so the substitution can be checked: on every synthetic
dataset, PRIMACY's ratio over ``pyzlib`` must stay within 2.5% of its
ratio over stdlib ``zlib`` at level 6.

The stdlib backend is registered only for the duration of each test,
so registry-wide codec sweeps and lint rule PL005 never see it.
"""

from __future__ import annotations

import zlib

import pytest

from repro.compressors.base import _REGISTRY, Codec, CodecError
from repro.core.primacy import PrimacyCodec, PrimacyConfig
from repro.datasets import dataset_names, generate_bytes

N_VALUES = 16_384  # 128 KiB: one chunk at the default chunk size
SEED = 2012
TOLERANCE = 0.025


class CZlibCodec(Codec):
    """Stdlib ``zlib`` at level 6 as a PRIMACY backend (tests only)."""

    name = "czlib"
    cacheable = False

    def compress(self, data: bytes) -> bytes:
        return zlib.compress(bytes(data), 6)

    def decompress(self, data: bytes) -> bytes:
        try:
            return zlib.decompress(bytes(data))
        except zlib.error as exc:
            raise CodecError(f"czlib: {exc}") from exc


@pytest.fixture
def czlib(monkeypatch):
    monkeypatch.setitem(_REGISTRY, CZlibCodec.name, CZlibCodec)
    return CZlibCodec.name


def _ratio(backend: str, data: bytes) -> float:
    codec = PrimacyCodec(PrimacyConfig(codec=backend))
    packed = codec.compress(data)
    assert codec.decompress(packed) == data
    return len(data) / len(packed)


@pytest.mark.parametrize("dataset", dataset_names())
def test_ratio_over_pyzlib_tracks_c_zlib(czlib, dataset):
    data = generate_bytes(dataset, N_VALUES, seed=SEED)
    assert len(data) <= PrimacyConfig().chunk_bytes
    ours = _ratio("pyzlib", data)
    reference = _ratio(czlib, data)
    gap = abs(ours - reference) / reference
    assert gap <= TOLERANCE, (
        f"{dataset}: PRIMACY ratio {ours:.3f} over pyzlib vs "
        f"{reference:.3f} over zlib {zlib.ZLIB_RUNTIME_VERSION} "
        f"({gap:.2%} apart)"
    )


def test_czlib_decode_errors_are_typed(czlib):
    with pytest.raises(CodecError):
        CZlibCodec().decompress(b"not a zlib stream")
