"""Tests for the byte-shuffle preconditioner codec."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compressors import CodecError, get_codec
from repro.compressors.shuffle import ShuffleCodec


class TestRoundtrip:
    @pytest.mark.parametrize(
        "data",
        [b"", b"short", np.arange(1000, dtype="<f8").tobytes(),
         np.arange(999, dtype="<f8").tobytes() + b"xyz"],
        ids=["empty", "sub-word", "aligned", "tail"],
    )
    def test_basic(self, data):
        codec = ShuffleCodec()
        assert codec.decompress(codec.compress(data)) == data

    def test_word_size_4(self):
        data = np.arange(500, dtype="<f4").tobytes()
        codec = ShuffleCodec(word_bytes=4)
        assert codec.decompress(codec.compress(data)) == data

    def test_other_backend(self, smooth_doubles):
        codec = ShuffleCodec(backend="pylzo")
        assert codec.decompress(codec.compress(smooth_doubles)) == smooth_doubles

    def test_backend_recorded_in_stream(self, smooth_doubles):
        # A default-constructed codec must decode a pylzo-backed stream.
        blob = ShuffleCodec(backend="pylzo").compress(smooth_doubles)
        assert ShuffleCodec().decompress(blob) == smooth_doubles

    @given(st.binary(max_size=2000))
    @settings(max_examples=40, deadline=None)
    def test_property_roundtrip(self, data):
        codec = ShuffleCodec()
        assert codec.decompress(codec.compress(data)) == data


class TestBehaviour:
    def test_improves_on_vanilla_for_floats(self, noisy_doubles):
        vanilla = get_codec("pyzlib")
        shuffle = ShuffleCodec()
        assert len(shuffle.compress(noisy_doubles)) < len(
            vanilla.compress(noisy_doubles)
        )

    def test_registered(self):
        assert isinstance(get_codec("shuffle"), ShuffleCodec)

    def test_word_validation(self):
        with pytest.raises(ValueError):
            ShuffleCodec(word_bytes=0)

    def test_truncated_rejected(self, smooth_doubles):
        codec = ShuffleCodec()
        blob = codec.compress(smooth_doubles)
        with pytest.raises(CodecError):
            codec.decompress(blob[: len(blob) // 2])
