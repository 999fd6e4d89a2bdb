"""``pybzip``: BWT + MTF + RLE0 + Huffman (bzip2 analogue).

bzip2's role in the paper is the "high ratio, throughput too low for
in-situ use" corner of the design space (Sec IV-C explicitly excludes it
from the end-to-end benches for that reason).  This codec reproduces the
bzip2 pipeline shape:

1. **BWT** over independent blocks -- suffix doubling on *cyclic rotations*
   (``O(n log^2 n)``, every sort pass vectorized via ``np.lexsort``).
2. **Move-to-front** -- converts local symbol reuse into small values.
3. **RLE0** -- zero runs become bijective base-2 RUNA/RUNB digits (bzip2's
   scheme), all other symbols shift up by one.
4. **Canonical Huffman** over the 258-symbol alphabet.

Inverse BWT uses the vectorized LF-mapping construction; only the final
permutation walk is a (tight) Python loop.
"""

from __future__ import annotations

import numpy as np

from repro.compressors import kernels as _batch
from repro.compressors.base import Codec, CodecError, register_codec
from repro.compressors.huffman import decode_symbol_block, encode_symbol_block
from repro.obs.trace import stage_span
from repro.util.varint import decode_uvarint, encode_uvarint

__all__ = ["BwtCodec", "bwt_transform", "bwt_inverse", "mtf_encode", "mtf_decode"]

_RUNA = 0
_RUNB = 1
_SYM_SHIFT = 2
_ALPHABET = 256 + _SYM_SHIFT

DEFAULT_BLOCK_SIZE = 128 * 1024


def bwt_transform(block: np.ndarray) -> tuple[np.ndarray, int]:
    """Burrows-Wheeler transform of ``block`` (cyclic-rotation variant).

    Returns ``(last_column, primary_index)`` where ``primary_index`` is the
    row of the original string in the sorted rotation matrix.
    """
    block = np.ascontiguousarray(block, dtype=np.uint8)
    n = block.size
    if n == 0:
        return block.copy(), 0
    if n == 1:
        return block.copy(), 0
    idx = np.arange(n, dtype=np.int64)
    # Initial ranks from single bytes.
    _, rank = np.unique(block, return_inverse=True)
    rank = rank.astype(np.int64)
    k = 1
    while k < n:
        key2 = rank[(idx + k) % n]
        order = np.lexsort((key2, rank))
        pair_first = rank[order]
        pair_second = key2[order]
        new_rank = np.empty(n, dtype=np.int64)
        distinct = np.ones(n, dtype=np.int64)
        distinct[1:] = (pair_first[1:] != pair_first[:-1]) | (
            pair_second[1:] != pair_second[:-1]
        )
        new_rank[order] = np.cumsum(distinct) - 1
        rank = new_rank
        if rank[order[-1]] == n - 1:  # all ranks distinct
            break
        k <<= 1
    order = np.argsort(rank, kind="stable")
    last = block[(order - 1) % n]
    primary = int(np.flatnonzero(order == 0)[0])
    return last, primary


def bwt_inverse(last: np.ndarray, primary: int) -> np.ndarray:
    """Invert :func:`bwt_transform`."""
    last = np.ascontiguousarray(last, dtype=np.uint8)
    n = last.size
    if n == 0:
        return last.copy()
    if not 0 <= primary < n:
        raise CodecError("BWT primary index out of range")
    counts = np.bincount(last, minlength=256)
    starts = np.zeros(256, dtype=np.int64)
    starts[1:] = np.cumsum(counts)[:-1]
    order = np.argsort(last, kind="stable")
    occ = np.empty(n, dtype=np.int64)
    occ[order] = np.arange(n, dtype=np.int64) - starts[last[order]]
    lf = starts[last.astype(np.int64)] + occ
    # Walk the permutation backwards from the primary row.
    out = np.empty(n, dtype=np.uint8)
    lf_list = lf.tolist()
    last_list = last.tolist()
    i = primary
    for k in range(n - 1, -1, -1):
        out[k] = last_list[i]
        i = lf_list[i]
    return out


def mtf_encode(data: np.ndarray) -> np.ndarray:
    """Move-to-front transform (byte alphabet)."""
    alphabet = list(range(256))
    out = np.empty(data.size, dtype=np.int64)
    pos = 0
    for byte in data.tolist():
        idx = alphabet.index(byte)
        out[pos] = idx
        pos += 1
        if idx:
            del alphabet[idx]
            alphabet.insert(0, byte)
    return out


def mtf_decode(ranks: np.ndarray) -> np.ndarray:
    """Invert :func:`mtf_encode`."""
    alphabet = list(range(256))
    out = np.empty(ranks.size, dtype=np.uint8)
    pos = 0
    for idx in ranks.tolist():
        byte = alphabet[idx]
        out[pos] = byte
        pos += 1
        if idx:
            del alphabet[idx]
            alphabet.insert(0, byte)
    return out


def _rle0_encode(ranks: np.ndarray) -> np.ndarray:
    """bzip2-style RLE of zero runs: bijective base-2 RUNA/RUNB digits."""
    out: list[int] = []
    n = ranks.size
    i = 0
    ranks_list = ranks.tolist()
    while i < n:
        v = ranks_list[i]
        if v == 0:
            j = i
            while j < n and ranks_list[j] == 0:
                j += 1
            run = j - i
            # Bijective base 2: run = sum (digit_k + 1) * 2^k, digits in {0,1}.
            while run > 0:
                run -= 1
                out.append(_RUNA if (run & 1) == 0 else _RUNB)
                run >>= 1
            i = j
        else:
            out.append(v + _SYM_SHIFT - 1)
            i += 1
    return np.asarray(out, dtype=np.int64)


def _rle0_decode(symbols: np.ndarray) -> np.ndarray:
    out: list[int] = []
    run = 0
    weight = 1
    for s in symbols.tolist():
        if s <= _RUNB:
            run += weight * (s + 1)
            weight <<= 1
            continue
        if run:
            out.extend([0] * run)
            run = 0
            weight = 1
        out.append(s - _SYM_SHIFT + 1)
    if run:
        out.extend([0] * run)
    return np.asarray(out, dtype=np.int64)


# Entropy-kernel backend -> per-stage implementations.  ``batch`` is the
# vectorized :mod:`repro.compressors.kernels` stack; ``reference`` keeps
# the scalar loops above as the equivalence oracle.  Every BWT-stack
# kernel is a deterministic transform, so compressed bytes are identical
# across backends.
_KERNEL_BACKENDS = {
    "batch": (
        _batch.mtf_encode,
        _batch.mtf_decode,
        _batch.rle0_encode,
        _batch.bwt_inverse,
    ),
    "reference": (mtf_encode, mtf_decode, _rle0_encode, bwt_inverse),
}


@register_codec
class BwtCodec(Codec):
    """Block-sorting compressor: strong ratio, low throughput.

    ``kernels`` selects ``"batch"`` (vectorized entropy kernels,
    default) or ``"reference"`` (frozen scalar implementation / oracle).
    """

    name = "pybzip"

    def __init__(
        self,
        block_size: int = DEFAULT_BLOCK_SIZE,
        kernels: str = "batch",
    ) -> None:
        if block_size < 16:
            raise ValueError("block_size too small")
        if kernels not in _KERNEL_BACKENDS:
            raise ValueError("kernels must be 'batch' or 'reference'")
        self.block_size = block_size
        self.kernels = kernels
        (
            self._mtf_encode,
            self._mtf_decode,
            self._rle0_encode,
            self._bwt_inverse,
        ) = _KERNEL_BACKENDS[kernels]

    def _rle0_expand(self, symbols: np.ndarray, block_len: int) -> np.ndarray:
        if self.kernels == "batch":
            # The batch decoder bounds the expansion up front, so a
            # corrupt stream fails before any giant allocation.
            return _batch.rle0_decode(symbols, max_size=block_len)
        return _rle0_decode(symbols)

    def compress(self, data: bytes) -> bytes:
        """Compress ``data`` into a self-describing stream (Codec API)."""
        data = bytes(data)
        n = len(data)
        out = bytearray(encode_uvarint(n))
        if n == 0:
            return bytes(out)
        n_blocks = (n + self.block_size - 1) // self.block_size
        out += encode_uvarint(n_blocks)
        for b in range(n_blocks):
            chunk = np.frombuffer(
                data, dtype=np.uint8,
                count=min(self.block_size, n - b * self.block_size),
                offset=b * self.block_size,
            )
            with stage_span(self.name, "bwt"):
                last, primary = bwt_transform(chunk)
            with stage_span(self.name, "mtf"):
                ranks = self._mtf_encode(last)
            with stage_span(self.name, "rle0"):
                symbols = self._rle0_encode(ranks)
            out += encode_uvarint(chunk.size)
            out += encode_uvarint(primary)
            with stage_span(self.name, "huffman"):
                out += encode_symbol_block(symbols, _ALPHABET)
        return bytes(out)

    def decompress(self, data: bytes) -> bytes:
        """Invert :meth:`compress` exactly (Codec API)."""
        n, pos = decode_uvarint(data, 0)
        if n == 0:
            return b""
        n_blocks, pos = decode_uvarint(data, pos)
        parts: list[bytes] = []
        for _ in range(n_blocks):
            block_len, pos = decode_uvarint(data, pos)
            primary, pos = decode_uvarint(data, pos)
            with stage_span(self.name, "huffman"):
                symbols, pos = decode_symbol_block(data, pos)
            with stage_span(self.name, "rle0"):
                ranks = self._rle0_expand(symbols, block_len)
            if ranks.size != block_len:
                raise CodecError("BWT block length mismatch after RLE0")
            with stage_span(self.name, "mtf"):
                last = self._mtf_decode(ranks)
            with stage_span(self.name, "bwt"):
                parts.append(self._bwt_inverse(last, primary).tobytes())
        result = b"".join(parts)
        if len(result) != n:
            raise CodecError("BWT stream length mismatch")
        return result
