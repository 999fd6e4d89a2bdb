"""``pyzlib``: the DEFLATE-style codec (LZ77 + canonical Huffman).

This is the reproduction's stand-in for zlib -- the "standard byte-level
entropy coder" the paper builds PRIMACY on.  Pipeline:

1. :func:`repro.compressors.lz77.tokenize` -- hash-chain LZ77 parse
   (greedy, lazy at levels 7-9); :func:`repro.compressors.lz77.reassemble`
   inverts it.  This one Python loop over NumPy-built word and hash
   tables is the codec's only parse, and the slowest stage of a compress.
2. Literal bytes            -> canonical Huffman (byte alphabet).
3. Literal-run lengths      -> bucketed integer coding.
4. Match lengths, distances -> bucketed integer coding.

Steps 2-4 pack their codewords with :func:`repro.util.bitio.pack_bits`, a
fixed number of NumPy passes per stream.

Unlike DEFLATE we keep the four streams separate rather than interleaved:
that preserves the byte-level entropy-coding behaviour PRIMACY exploits
while letting every stream decode with vectorized NumPy kernels (the HPC
guides' "no per-element Python" rule).  A stored-block escape guarantees
at most a few bytes of expansion on incompressible input, mirroring zlib's
stored blocks.  Damaged input raises a
:class:`~repro.compressors.base.CodecError`; a cut or too-long uvarint is a
:class:`~repro.compressors.base.TruncationError` or
:class:`~repro.compressors.base.CorruptionError`.

The ``level`` knob maps to hash-chain depth, like zlib's compression levels.
The ``strategy`` knob picks the parse, like zlib's: ``"default"`` is the
hash-chain parse above, ``"rle"`` is zlib's ``Z_RLE``
(:func:`repro.compressors.lz77.rle_tokenize`), which matches only byte
runs at distance 1.  Both emit the same token layout, so one decoder reads
either stream and nothing in a stream says which parse made it.
"""

from __future__ import annotations

import numpy as np

from repro.compressors._buckets import decode_bucketed, encode_bucketed
from repro.compressors.base import Codec, CodecError, checked_uvarint, register_codec
from repro.compressors.huffman import decode_symbol_block, encode_symbol_block
from repro.compressors.lz77 import (
    MIN_MATCH,
    TokenStream,
    reassemble,
    rle_tokenize,
    tokenize,
)
from repro.obs.trace import stage_span
from repro.util.varint import encode_uvarint

__all__ = ["STRATEGIES", "DeflateCodec"]

#: Parse strategies, named after zlib's (``Z_DEFAULT_STRATEGY``, ``Z_RLE``).
STRATEGIES = ("default", "rle")

_MODE_RAW = 0
_MODE_COMPRESSED = 1

# zlib-like level -> (hash-chain depth, lazy matching).
_LEVEL_CHAIN = {
    1: (4, False),
    2: (8, False),
    3: (8, False),
    4: (16, False),
    5: (16, False),
    6: (32, False),
    7: (64, True),
    8: (128, True),
    9: (256, True),
}


@register_codec
class DeflateCodec(Codec):
    """LZ77 + Huffman general-purpose byte codec (zlib analogue).

    Parameters
    ----------
    level:
        1 (fastest) .. 9 (best ratio); controls match-search depth.
    strategy:
        ``"default"`` (the hash-chain parse) or ``"rle"`` (zlib's
        ``Z_RLE``: distance-1 runs only; ``level`` does not apply).
    """

    name = "pyzlib"

    def __init__(self, level: int = 6, *, strategy: str = "default") -> None:
        if level not in _LEVEL_CHAIN:
            raise ValueError("level must be in 1..9")
        if strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}")
        self.level = level
        self.strategy = strategy
        self._max_chain, self._lazy = _LEVEL_CHAIN[level]

    def compress(self, data: bytes) -> bytes:
        """Compress ``data`` into a self-describing stream (Codec API)."""
        data = bytes(data)
        n = len(data)
        header = encode_uvarint(n)
        if n == 0:
            return header
        with stage_span(self.name, "tokenize"):
            if self.strategy == "rle":
                stream = rle_tokenize(data)
            else:
                stream = tokenize(data, max_chain=self._max_chain, lazy=self._lazy)
        with stage_span(self.name, "huffman"):
            body = self._encode_tokens(stream)
        if len(body) >= n:
            # Stored block: incompressible input must not blow up.
            return header + bytes([_MODE_RAW]) + data
        return header + bytes([_MODE_COMPRESSED]) + body

    def decompress(self, data: bytes) -> bytes:
        """Invert :meth:`compress` exactly (Codec API)."""
        n, pos = checked_uvarint(data, 0, "deflate size header")
        if n == 0:
            return b""
        if pos >= len(data):
            raise CodecError("truncated deflate stream")
        mode = data[pos]
        pos += 1
        if mode == _MODE_RAW:
            raw = data[pos : pos + n]
            if len(raw) != n:
                raise CodecError("truncated stored block")
            return raw
        if mode != _MODE_COMPRESSED:
            raise CodecError(f"unknown deflate mode {mode}")
        with stage_span(self.name, "huffman"):
            stream = self._decode_tokens(data, pos, n)
        with stage_span(self.name, "reassemble"):
            return reassemble(stream)

    # -- token (de)serialization -----------------------------------------

    @staticmethod
    def _encode_tokens(stream: TokenStream) -> bytes:
        literals = np.frombuffer(stream.literals, dtype=np.uint8)
        out = bytearray()
        out += encode_uvarint(stream.n_matches)
        out += encode_symbol_block(literals, 256)
        out += encode_bucketed(stream.lit_runs)
        out += encode_bucketed(stream.match_lens - MIN_MATCH)
        out += encode_bucketed(stream.match_dists - 1)
        return bytes(out)

    @staticmethod
    def _decode_tokens(data: bytes, pos: int, original_size: int) -> TokenStream:
        n_matches, pos = checked_uvarint(data, pos, "match count")
        literal_syms, pos = decode_symbol_block(data, pos)
        lit_runs, pos = decode_bucketed(data, pos)
        lens_rel, pos = decode_bucketed(data, pos)
        dists_rel, pos = decode_bucketed(data, pos)
        if lit_runs.size != n_matches + 1:
            raise CodecError("literal run count mismatch")
        if lens_rel.size != n_matches or dists_rel.size != n_matches:
            raise CodecError("match stream count mismatch")
        return TokenStream(
            lit_runs=lit_runs,
            match_lens=lens_rel + MIN_MATCH,
            match_dists=dists_rel + 1,
            literals=literal_syms.astype(np.uint8).tobytes(),
            original_size=original_size,
        )
