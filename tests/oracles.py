"""Frozen reference implementations: the equivalence oracles.

Each product stage has one implementation in ``src/``.  The code it
replaced lives on here, unchanged, so that a hypothesis property can
check the product against it and the gated benches can time it as the
"before":

* the chunk pipeline's original matrix path -- :func:`reference_apply`,
  :func:`reference_id_stream` (the compress stage) and
  :func:`reference_decode_chunk` (the record decode) -- against the
  fused kernels of :mod:`repro.core.kernels`
  (``tests/core/test_kernels.py``, ``benchmarks/bench_kernels.py``);
* the scalar BWT-stack loops -- :func:`reference_mtf_encode`,
  :func:`reference_mtf_decode`, :func:`reference_rle0_encode`,
  :func:`reference_rle0_decode` and :func:`reference_bwt_inverse` --
  against the batch stages of :mod:`repro.compressors.bwt`
  (``tests/compressors/test_entropy_kernels.py``,
  ``benchmarks/bench_entropy.py``).

Nothing here is tuned: the oracles stay slow on purpose.
"""

from __future__ import annotations

import numpy as np

from repro.compressors.base import (
    CodecError,
    CorruptionError,
    TruncationError,
    get_codec,
)
from repro.core.bytesplit import (
    byte_matrix_to_values,
    combine_bytes,
    split_bytes,
    values_to_byte_matrix,
)
from repro.core.idmap import FrequencyIndex, IdMapper
from repro.core.linearize import Linearization, delinearize
from repro.core.primacy import _CHUNK_FLAG_INLINE_INDEX, PrimacyConfig
from repro.isobar import IsobarPartitioner
from repro.isobar.bitplane import BitplanePartitioner
from repro.util.checksum import adler32
from repro.util.varint import decode_uvarint

__all__ = [
    "reference_apply",
    "reference_id_stream",
    "reference_decode_chunk",
    "reference_mtf_encode",
    "reference_mtf_decode",
    "reference_rle0_encode",
    "reference_rle0_decode",
    "reference_bwt_inverse",
]

_RUNA = 0
_RUNB = 1
_SYM_SHIFT = 2


# --------------------------------------------------------------------- #
# chunk pipeline                                                         #
# --------------------------------------------------------------------- #


def reference_apply(seqs, index):
    """The pre-kernels ID-mapping path.

    Exactly what ``IdMapper.apply`` used to do: build a fresh dense
    lookup table per call, gather, and on an index-reuse miss rebuild
    the table and re-gather the *entire* chunk.

    Returns ``(id_matrix, used_index)`` like ``IdMapper.apply``.
    """
    table = index.lookup_table()
    ids = table[seqs]
    missing_mask = ids < 0
    if missing_mask.any():
        missing = np.unique(seqs[missing_mask])
        index = index.extended(missing)
        table = index.lookup_table()
        ids = table[seqs]
    seq_bytes = index.seq_bytes
    out = np.empty((ids.size, seq_bytes), dtype=np.uint8)
    for col in range(seq_bytes):
        shift = 8 * (seq_bytes - 1 - col)
        out[:, col] = ((ids >> shift) & 0xFF).astype(np.uint8)
    return out, index


def reference_id_stream(
    chunk: bytes,
    config: PrimacyConfig,
    index: FrequencyIndex | None = None,
) -> tuple[bytes, np.ndarray, FrequencyIndex]:
    """The original precondition + ID-map stage of one chunk.

    Materializes the big-endian byte matrix, slices the high/low parts,
    maps the high part through :func:`reference_apply` and serializes
    the ID matrix with a transpose copy.  ``index`` is a reused index
    (``None`` builds a fresh one from the chunk's frequencies).

    Returns ``(id_stream, low_matrix, used_index)``.
    """
    mapper = IdMapper(seq_bytes=config.high_bytes)
    matrix = values_to_byte_matrix(chunk, config.word_bytes)
    high, low = split_bytes(matrix, config.high_bytes)
    seqs = mapper.sequences(high)
    if index is None:
        index = mapper.index_from_frequencies(mapper.frequencies(seqs))
    id_matrix, used_index = reference_apply(seqs, index)
    if config.linearization is Linearization.COLUMN:
        id_stream = np.ascontiguousarray(id_matrix.T).tobytes()
    else:
        id_stream = np.ascontiguousarray(id_matrix).tobytes()
    return id_stream, low, used_index


def reference_decode_chunk(
    record: bytes,
    config: PrimacyConfig,
    current_index: FrequencyIndex | None = None,
) -> tuple[bytes, FrequencyIndex]:
    """Decode a plain chunk record through the original matrix path.

    The record parse, then: delinearize the ID matrix, invert it through
    the index, decompress the ISOBAR matrix into a fresh array, and
    reassemble the words with ``combine_bytes`` +
    ``byte_matrix_to_values``.  ``current_index`` is the index in
    effect when the record reuses one.  Returns ``(chunk, index)``.
    """
    word_bytes = config.word_bytes
    high_bytes = config.high_bytes
    linearization = config.linearization
    use_checksum = config.checksum
    codec = get_codec(config.codec)
    mapper = IdMapper(seq_bytes=high_bytes)
    partitioner = (
        BitplanePartitioner(codec)
        if config.isobar_granularity == "bit"
        else IsobarPartitioner(codec, config.isobar)
    )

    if not record:
        raise TruncationError("empty chunk record")
    flags = record[0]
    pos = 1
    n_values, pos = decode_uvarint(record, pos)
    if flags & _CHUNK_FLAG_INLINE_INDEX:
        index, pos = FrequencyIndex.deserialize(record, pos)
    else:
        if current_index is None:
            raise CorruptionError(
                "chunk reuses an index but none precedes it"
            )
        n_ext, pos = decode_uvarint(record, pos)
        itemsize = 4 if high_bytes > 2 else 2
        width = ">u4" if high_bytes > 2 else ">u2"
        raw = record[pos : pos + n_ext * itemsize]
        if len(raw) != n_ext * itemsize:
            raise TruncationError("truncated index extension")
        pos += n_ext * itemsize
        extension = np.frombuffer(raw, dtype=width).astype(np.uint32)
        index = current_index.extended(extension)
    high_len, pos = decode_uvarint(record, pos)
    if len(record) - pos < high_len:
        raise TruncationError(
            f"chunk record high-order payload truncated (need "
            f"{high_len} bytes at {pos}, have {len(record) - pos})"
        )
    high_compressed = bytes(record[pos : pos + high_len])
    pos += high_len
    low_len, pos = decode_uvarint(record, pos)
    if len(record) - pos < low_len:
        raise TruncationError(
            f"chunk record low-order payload truncated (need "
            f"{low_len} bytes at {pos}, have {len(record) - pos})"
        )
    low_blob = bytes(record[pos : pos + low_len])
    pos += low_len

    id_stream = codec.decompress(high_compressed)
    id_matrix = delinearize(id_stream, n_values, high_bytes, linearization)
    high = mapper.invert(id_matrix, index)
    low = partitioner.decompress(low_blob)
    if low.shape != (n_values, word_bytes - high_bytes):
        raise CorruptionError("low-order matrix shape mismatch")
    matrix = combine_bytes(high, low)
    chunk = byte_matrix_to_values(matrix)
    if use_checksum:
        if len(record) - pos != 4:
            raise CorruptionError(
                f"chunk record ends with {len(record) - pos} bytes "
                "where the 4-byte checksum belongs"
            )
        stored = int.from_bytes(record[pos : pos + 4], "big")
        if adler32(chunk) != stored:
            raise CorruptionError("chunk checksum mismatch")
    elif pos != len(record):
        raise CorruptionError(
            f"{len(record) - pos} bytes of trailing garbage "
            "in chunk record"
        )
    return chunk, index


# --------------------------------------------------------------------- #
# BWT stack                                                              #
# --------------------------------------------------------------------- #


def reference_mtf_encode(data: np.ndarray) -> np.ndarray:
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


def reference_mtf_decode(ranks: np.ndarray) -> np.ndarray:
    """Invert :func:`reference_mtf_encode`."""
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


def reference_rle0_encode(ranks: np.ndarray) -> np.ndarray:
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


def reference_rle0_decode(symbols: np.ndarray) -> np.ndarray:
    """Invert :func:`reference_rle0_encode`; no bound on the expansion."""
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


def reference_bwt_inverse(last: np.ndarray, primary: int) -> np.ndarray:
    """Invert the BWT with the n-step Python walk of the LF mapping."""
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
