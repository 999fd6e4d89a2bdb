"""Byte-shuffle preconditioner (Blosc-style comparator).

The simplest float preconditioner predating PRIMACY: transpose the
``N x word`` byte matrix so each byte position forms a contiguous plane,
then run a standard codec.  Like PRIMACY it exploits the regularity of
the high-order byte planes; unlike PRIMACY it performs no frequency
remapping, so the exponent bytes keep their raw (spread-out) values and
the entropy coder sees less skew.

Included as the natural ablation baseline *between* vanilla compression
and PRIMACY: shuffle isolates how much of PRIMACY's gain comes from mere
byte-plane separation versus the frequency-ranked ID mapping
(``benchmarks/bench_shuffle.py``).
"""

from __future__ import annotations

import numpy as np

from repro.compressors.base import (
    Codec,
    CodecError,
    checked_uvarint,
    get_codec,
    register_codec,
)
from repro.util.varint import encode_uvarint

__all__ = ["ShuffleCodec"]


@register_codec
class ShuffleCodec(Codec):
    """Byte transpose + backend codec (Blosc's shuffle filter).

    Parameters
    ----------
    word_bytes:
        Element width whose bytes are de-interleaved (8 for float64).
    backend:
        Registry name of the codec applied after shuffling.
    """

    name = "shuffle"

    def __init__(self, word_bytes: int = 8, backend: str = "pyzlib") -> None:
        if word_bytes < 1:
            raise ValueError("word_bytes must be positive")
        self.word_bytes = word_bytes
        self.backend = get_codec(backend)

    def compress(self, data: bytes) -> bytes:
        """Compress ``data`` into a self-describing stream (Codec API)."""
        data = bytes(data)
        word = self.word_bytes
        n_words, tail_len = divmod(len(data), word)
        out = bytearray()
        out += encode_uvarint(len(data))
        out += encode_uvarint(word)
        name = self.backend.name.encode("ascii")
        out += encode_uvarint(len(name))
        out += name
        out += data[len(data) - tail_len :]
        if n_words:
            matrix = np.frombuffer(
                data, dtype=np.uint8, count=n_words * word
            ).reshape(n_words, word)
            shuffled = np.ascontiguousarray(matrix.T).tobytes()
            payload = self.backend.compress(shuffled)
        else:
            payload = b""
        out += encode_uvarint(len(payload))
        out += payload
        return bytes(out)

    def decompress(self, data: bytes) -> bytes:
        """Invert :meth:`compress` exactly (Codec API)."""
        total, pos = checked_uvarint(data, 0, "shuffle size header")
        word, pos = checked_uvarint(data, pos, "shuffle word size")
        if word < 1:
            raise CodecError("corrupt shuffle word size")
        name_len, pos = checked_uvarint(data, pos, "shuffle backend name length")
        # A non-ascii name decodes to no registered codec: a CodecError below.
        backend_name = data[pos : pos + name_len].decode("ascii", "replace")
        pos += name_len
        if backend_name == self.backend.name:
            backend = self.backend
        else:
            try:
                backend = get_codec(backend_name)
            except KeyError as exc:
                raise CodecError(f"unknown backend codec {backend_name!r}") from exc
        n_words, tail_len = divmod(total, word)
        tail = data[pos : pos + tail_len]
        pos += tail_len
        payload_len, pos = checked_uvarint(data, pos, "shuffle payload length")
        payload = data[pos : pos + payload_len]
        if len(payload) != payload_len:
            raise CodecError("truncated shuffle payload")
        if n_words == 0:
            return tail
        shuffled = backend.decompress(payload)
        if len(shuffled) != n_words * word:
            raise CodecError("shuffle payload size mismatch")
        matrix = np.frombuffer(shuffled, dtype=np.uint8).reshape(word, n_words)
        return np.ascontiguousarray(matrix.T).tobytes() + tail
