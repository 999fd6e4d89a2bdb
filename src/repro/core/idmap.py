"""Frequency analysis and the bijective ID mapping (Sec II-C, II-F).

The heart of PRIMACY: per chunk, count how often each distinct high-order
byte sequence occurs, then assign IDs in descending frequency order -- the
most frequent sequence becomes ID 0, the next 255 become the IDs with a
single zero high byte, and so on.  On the byte level this concentrates
probability mass on the 0 byte, exactly what an entropy coder wants (MDL
principle), and what run-length machinery wants once the ID bytes are
column-linearized.

:class:`FrequencyIndex` is the per-chunk metadata (the ID -> byte-sequence
table the decompressor needs).  :class:`IdMapper` builds indexes and applies
them in both directions, entirely with vectorized table gathers.

:class:`IndexReusePolicy` implements the paper's Sec II-F discussion: the
index can be rebuilt per chunk (paper default), built once and reused, or
reused adaptively when the frequency profile of the new chunk still
correlates with the profile the index was built from.  Reused indexes are
*extended* with any byte sequences unseen when the index was built, so the
mapping stays bijective and lossless.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.compressors.base import CodecError
from repro.util.varint import decode_uvarint, encode_uvarint

__all__ = ["FrequencyIndex", "IdMapper", "IndexReusePolicy"]


class IndexReusePolicy(enum.Enum):
    """When to rebuild the per-chunk frequency index (Sec II-F)."""

    PER_CHUNK = "per_chunk"  # paper's implementation
    FIRST_CHUNK = "first_chunk"  # build once, extend as needed
    CORRELATED = "correlated"  # rebuild when correlation drops


@dataclass(frozen=True)
class FrequencyIndex:
    """Bijective mapping between byte sequences and frequency-ranked IDs.

    Attributes
    ----------
    values:
        ``uint32`` array; ``values[i]`` is the byte sequence (as an integer,
        big-endian byte order) assigned ID ``i``.  Sorted by descending
        frequency at build time; extensions are appended.
    seq_bytes:
        Width of the byte sequences (2 for the paper's split).
    """

    values: np.ndarray
    seq_bytes: int

    def __post_init__(self) -> None:
        if self.values.ndim != 1:
            raise ValueError("index values must be 1-D")
        if self.values.size > (1 << (8 * self.seq_bytes)):
            raise ValueError("more IDs than possible byte sequences")

    @property
    def n_unique(self) -> int:
        """Number of distinct entries."""
        return self.values.size

    def lookup_table(self) -> np.ndarray:
        """Dense sequence -> ID table (-1 for unseen sequences).

        ``int32`` is exact: IDs are bounded by the alphabet size, which
        :class:`IdMapper` caps at ``2**24`` (``seq_bytes <= 3``).
        Halving the table width (vs the old ``int64``) halves both the
        per-chunk fill traffic and the gather's cache footprint.
        """
        table = np.full(1 << (8 * self.seq_bytes), -1, dtype=np.int32)
        table[self.values] = np.arange(self.values.size, dtype=np.int32)
        return table

    def extended(self, missing_values: np.ndarray) -> "FrequencyIndex":
        """Return a new index with ``missing_values`` appended (reuse path)."""
        if missing_values.size == 0:
            return self
        return FrequencyIndex(
            values=np.concatenate([self.values, missing_values.astype(np.uint32)]),
            seq_bytes=self.seq_bytes,
        )

    # -- serialization (this is the paper's delta metadata) ----------------

    def serialize(self) -> bytes:
        """Serialize this instance to bytes."""
        out = bytearray()
        out += encode_uvarint(self.seq_bytes)
        out += encode_uvarint(self.values.size)
        width = ">u4" if self.seq_bytes > 2 else ">u2"
        out += self.values.astype(width).tobytes()
        return bytes(out)

    @classmethod
    def deserialize(cls, data: bytes, offset: int = 0) -> tuple["FrequencyIndex", int]:
        """Parse a serialized instance; returns ``(obj, next_offset)``."""
        seq_bytes, pos = decode_uvarint(data, offset)
        if not 1 <= seq_bytes <= 4:
            raise CodecError("corrupt index: bad sequence width")
        n, pos = decode_uvarint(data, pos)
        width = ">u4" if seq_bytes > 2 else ">u2"
        itemsize = 4 if seq_bytes > 2 else 2
        raw = data[pos : pos + n * itemsize]
        if len(raw) != n * itemsize:
            raise CodecError("truncated frequency index")
        values = np.frombuffer(raw, dtype=width).astype(np.uint32)
        if values.size:
            alphabet = 1 << (8 * seq_bytes)
            if alphabet <= 1 << 16:
                # O(n + alphabet), no sort and no copy of the values --
                # the common (seq_bytes <= 2) decode path.
                counts = np.bincount(values, minlength=alphabet)
                duplicated = bool(counts.max() > 1)
            else:
                # Wide alphabets would make the count array the cost, so
                # keep the sort-based check there.
                duplicated = np.unique(values).size != values.size
            if duplicated:
                raise CodecError("corrupt index: duplicate byte sequences")
        return cls(values=values, seq_bytes=seq_bytes), pos + n * itemsize


class IdMapper:
    """Builds frequency indexes and maps byte matrices to/from ID matrices."""

    def __init__(self, seq_bytes: int = 2) -> None:
        if not 1 <= seq_bytes <= 3:
            raise ValueError("seq_bytes must be 1..3 (index must fit in memory)")
        self.seq_bytes = seq_bytes
        # Persistent sequence -> ID table, lazily created on the first
        # apply and *refilled* (never reallocated) per chunk; see
        # _load_table.
        self._table: np.ndarray | None = None
        self._table_index: FrequencyIndex | None = None

    # -- frequency analysis -------------------------------------------------

    def sequences(self, high: np.ndarray) -> np.ndarray:
        """Pack the ``N x seq_bytes`` high matrix into integer sequences."""
        high = np.asarray(high)
        if high.ndim != 2 or high.shape[1] != self.seq_bytes:
            raise ValueError("high matrix width does not match seq_bytes")
        seqs = np.zeros(high.shape[0], dtype=np.uint32)
        for col in range(self.seq_bytes):
            seqs = (seqs << np.uint32(8)) | high[:, col].astype(np.uint32)
        return seqs

    def frequencies(self, seqs: np.ndarray) -> np.ndarray:
        """Histogram over all possible byte sequences."""
        return np.bincount(seqs, minlength=1 << (8 * self.seq_bytes))

    def build_index(self, high: np.ndarray) -> FrequencyIndex:
        """Frequency-ranked index of the sequences present in ``high``."""
        seqs = self.sequences(high)
        freq = self.frequencies(seqs)
        return self.index_from_frequencies(freq)

    def index_from_frequencies(self, freq: np.ndarray) -> FrequencyIndex:
        """Build the ranked index from a precomputed frequency vector.

        Sorting only the *present* sequences (typically a few thousand of
        65,536) keeps the per-chunk cost proportional to the data, not the
        alphabet.  Ties break by ascending sequence value, matching the
        paper's "traversing ascending byte-sequences sorted by descending
        frequency": ``present`` is already ascending, so one *stable*
        sort on descending frequency is equivalent to (and half the cost
        of) a two-key lexsort.
        """
        # flatnonzero over the bool mask, not the int64 counts: numpy's
        # nonzero kernel is ~7x faster on bool input, and this scan is
        # the only per-alphabet (vs per-present) cost of the build.
        present = np.flatnonzero(freq != 0)
        order = present[np.argsort(-freq[present], kind="stable")]
        return FrequencyIndex(
            values=order.astype(np.uint32), seq_bytes=self.seq_bytes
        )

    # -- applying the mapping -------------------------------------------------

    def _load_table(self, index: FrequencyIndex) -> np.ndarray:
        """Persistent lookup table refilled (not reallocated) for ``index``.

        The dense table is allocated once per mapper; loading a new index
        resets only the entries the *previous* index populated (cost
        proportional to its unique count, not the alphabet) and fills the
        new ones.  Loading the index already in effect -- every chunk of
        a reuse chain -- is free.
        """
        if self._table is None:
            self._table = np.full(1 << (8 * self.seq_bytes), -1, dtype=np.int32)
        elif self._table_index is index:
            return self._table
        elif self._table_index is not None:
            self._table[self._table_index.values] = -1
        self._table[index.values] = np.arange(index.n_unique, dtype=np.int32)
        self._table_index = index
        return self._table

    def apply_ids(
        self, seqs: np.ndarray, index: FrequencyIndex
    ) -> tuple[np.ndarray, FrequencyIndex]:
        """Map packed sequences to their IDs (``int32``), extending on miss.

        The hot-path core of :meth:`apply`: uses the mapper's persistent
        table, and on an index-reuse miss assigns fresh IDs to the
        missing sequences in the table and re-gathers *only the missing
        rows* -- the full-chunk gather runs exactly once.
        """
        table = self._load_table(index)
        ids = table[seqs]
        missing_mask = ids < 0
        if missing_mask.any():
            missing_rows = seqs[missing_mask]
            missing = np.unique(missing_rows)
            table[missing] = np.arange(
                index.n_unique, index.n_unique + missing.size, dtype=np.int32
            )
            index = index.extended(missing)
            self._table_index = index
            ids[missing_mask] = table[missing_rows]
        return ids, index

    def apply(
        self, high: np.ndarray, index: FrequencyIndex
    ) -> tuple[np.ndarray, FrequencyIndex]:
        """Map the high matrix to an ID matrix of the same shape.

        If ``index`` lacks sequences present in ``high`` (index-reuse path),
        it is extended; the possibly-extended index actually used is
        returned alongside the IDs.
        """
        seqs = self.sequences(high)
        ids, index = self.apply_ids(seqs, index)
        return self._ids_to_bytes(ids), index

    # -- helpers --------------------------------------------------------------

    def _ids_to_bytes(self, ids: np.ndarray) -> np.ndarray:
        """IDs as an ``N x seq_bytes`` big-endian byte matrix."""
        out = np.empty((ids.size, self.seq_bytes), dtype=np.uint8)
        for col in range(self.seq_bytes):
            shift = 8 * (self.seq_bytes - 1 - col)
            out[:, col] = ((ids >> shift) & 0xFF).astype(np.uint8)
        return out

    # -- index reuse support ---------------------------------------------------

    @staticmethod
    def frequency_correlation(freq_a: np.ndarray, freq_b: np.ndarray) -> float:
        """Cosine similarity between two chunk frequency vectors (Sec II-F)."""
        a = freq_a.astype(np.float64)
        b = freq_b.astype(np.float64)
        na = np.linalg.norm(a)
        nb = np.linalg.norm(b)
        if na == 0 or nb == 0:
            return 1.0 if na == nb else 0.0
        return float(a @ b / (na * nb))
