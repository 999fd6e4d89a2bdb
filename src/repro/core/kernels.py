"""Fused, allocation-conscious kernels for the PRIMACY chunk hot path.

The naive matrix pipeline (:mod:`repro.core.bytesplit` /
:mod:`repro.core.linearize`) makes a full byte-reversed copy of every
chunk, builds the ID matrix column by column with per-column
temporaries, and pays two more full-size copies for the transpose +
serialize step.  The paper's performance model (Sec III) charges every
one of those passes against preconditioner throughput ``T_prec``, so
the pipeline runs these *fused* kernels instead, which

* derive the big-endian high-order sequence array directly from the raw
  little-endian chunk view with shifts and masks -- the ``N x 8`` byte
  matrix is never materialized on the compress path
  (:func:`pack_sequences`);
* hand ISOBAR the low-order part as a negative-strided *view* of the
  same raw buffer (:func:`low_matrix_view`) -- no slice copy;
* serialize the ID bytes straight from the ID vector into a
  column- (or row-) linearized output buffer in one pass
  (:func:`linearize_ids`), and invert that without materializing the
  intermediate ID matrix (:func:`ids_from_stream`);
* rebuild the raw little-endian chunk layout on decode by scattering
  sequence bytes into their word positions (:func:`fill_high_from_seqs`).

Every kernel writes into buffers owned by a :class:`ScratchArena`: a
per-pipeline pool of reusable scratch buffers keyed by call-site name.
At steady state (a stream of equal-geometry chunks) the arena performs
no allocations at all; when chunk geometry changes, buffers grow
monotonically and are reused for every later chunk that fits.

The naive path is kept as ``reference_*`` oracles in
``tests/oracles.py``: hypothesis properties in
``tests/core/test_kernels.py`` hold the kernels byte-exact to it, and
``benchmarks/bench_kernels.py`` times both (see ``docs/PERFORMANCE.md``).
"""

from __future__ import annotations

import sys

import numpy as np

from repro.core.linearize import Linearization

__all__ = [
    "ScratchArena",
    "raw_matrix",
    "pack_sequences",
    "low_matrix_view",
    "linearize_ids",
    "ids_from_stream",
    "fill_high_from_seqs",
]

_NATIVE_IS_LITTLE = sys.byteorder == "little"


class ScratchArena:
    """Pool of reusable scratch buffers keyed by call-site name.

    Each distinct ``name`` owns one flat byte buffer that only ever
    grows; :meth:`array` returns a typed, shaped view of its prefix.
    Buffers are reused across chunks, so two *concurrently live* arrays
    must use distinct names -- the convention is one fixed name per call
    site, which makes aliasing statically obvious.

    The arena is single-threaded by design: one arena per pipeline
    (``PrimacyCompressor``) or per worker process, never shared across
    threads.  ``allocations`` counts real backing allocations, which is
    what the arena-reuse tests pin: a steady-state chunk stream must
    stop allocating after the first chunk.
    """

    __slots__ = ("_buffers", "allocations")

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}
        self.allocations = 0

    def array(
        self,
        name: str,
        shape: int | tuple[int, ...],
        dtype: np.dtype | type = np.uint8,
    ) -> np.ndarray:
        """Return an uninitialized ``shape``/``dtype`` array named ``name``.

        The content is whatever the previous user of the buffer left
        behind -- callers must fully overwrite it.
        """
        if isinstance(shape, int):
            shape = (shape,)
        dt = np.dtype(dtype)
        n_items = 1
        for dim in shape:
            if dim < 0:
                raise ValueError("negative dimension in arena request")
            n_items *= dim
        nbytes = n_items * dt.itemsize
        buf = self._buffers.get(name)
        if buf is None or buf.nbytes < nbytes:
            buf = np.empty(max(nbytes, 1), dtype=np.uint8)
            self._buffers[name] = buf
            self.allocations += 1
        return buf[:nbytes].view(dt).reshape(shape)

    @property
    def nbytes(self) -> int:
        """Total bytes currently held by the arena."""
        return sum(b.nbytes for b in self._buffers.values())

    def clear(self) -> None:
        """Drop every buffer (the next chunk re-allocates)."""
        self._buffers.clear()


# --------------------------------------------------------------------- #
# compress-side kernels                                                  #
# --------------------------------------------------------------------- #


def raw_matrix(
    chunk: bytes | bytearray | memoryview | np.ndarray, word_bytes: int
) -> np.ndarray:
    """Zero-copy ``N x word_bytes`` view of a chunk in raw (storage) order.

    Unlike :func:`repro.core.bytesplit.values_to_byte_matrix`, the bytes
    are *not* reversed into big-endian column order: column ``j`` is the
    ``j``-th stored byte of each word, i.e. significance ``j`` on the
    little-endian platforms we target.  The fused kernels do the
    big-endian bookkeeping with shifts instead of a reversed copy.
    """
    if isinstance(chunk, np.ndarray):
        if chunk.dtype.itemsize != word_bytes:
            raise ValueError("array itemsize does not match word_bytes")
        buf = np.ascontiguousarray(chunk).view(np.uint8).ravel()
    else:
        buf = np.frombuffer(chunk, dtype=np.uint8)
    if buf.size % word_bytes:
        raise ValueError("byte length is not a multiple of the word size")
    return buf.reshape(-1, word_bytes)


def pack_sequences(
    raw: np.ndarray, high_bytes: int, arena: ScratchArena
) -> np.ndarray:
    """High-order byte sequences straight from the raw chunk view.

    Equivalent to ``IdMapper.sequences(split_bytes(values_to_byte_matrix
    (chunk))[0])`` but fused: the most significant ``high_bytes`` bytes
    of each little-endian word (the *last* stored bytes) are packed
    big-endian-first into a ``uint32`` vector with two in-place passes
    per byte, never materializing the reversed byte matrix.
    """
    n, w = raw.shape
    if not 1 <= high_bytes <= w:
        raise ValueError("high_bytes out of range")
    out = arena.array("seqs", n, np.uint32)
    if n == 0:
        return out
    np.copyto(out, raw[:, w - 1], casting="safe")
    for k in range(1, high_bytes):
        out <<= np.uint32(8)
        out |= raw[:, w - 1 - k]
    return out


def low_matrix_view(raw: np.ndarray, high_bytes: int) -> np.ndarray:
    """Low-order sub-matrix as a strided view of the raw chunk (no copy).

    Byte-identical to ``split_bytes(values_to_byte_matrix(chunk),
    high_bytes)[1]`` -- columns ordered most-significant-first -- but a
    negative-strided view into the raw buffer, so ISOBAR's sampling
    analyzer and the column gather read from the original bytes.
    """
    w = raw.shape[1]
    if not 1 <= high_bytes <= w:
        raise ValueError("high_bytes out of range")
    return raw[:, w - high_bytes - 1 :: -1] if high_bytes < w else raw[:, :0]


def linearize_ids(
    ids: np.ndarray,
    seq_bytes: int,
    order: Linearization,
    arena: ScratchArena,
) -> bytes:
    """Serialize an ID vector to the linearized byte stream in one pass.

    Equivalent to ``column_linearize(IdMapper._ids_to_bytes(ids))`` (or
    ``row_linearize`` for row order), fused: each ID byte plane is
    shifted out of the ID vector directly into its position in an
    arena-owned output buffer, so the only full-size copy is the final
    ``tobytes`` that hands an owned stream to the backend codec.
    """
    n = ids.size
    if order is Linearization.COLUMN:
        out = arena.array("id_stream", (seq_bytes, n))
        planes = out
    else:
        out = arena.array("id_stream", (n, seq_bytes))
        planes = out.T
    scratch = arena.array("id_shift", n, np.int32)
    for col in range(seq_bytes):
        shift = 8 * (seq_bytes - 1 - col)
        if shift:
            np.right_shift(ids, shift, out=scratch, casting="unsafe")
            np.copyto(planes[col], scratch, casting="unsafe")
        else:
            np.copyto(planes[col], ids, casting="unsafe")
    return out.tobytes()


# --------------------------------------------------------------------- #
# decode-side kernels                                                    #
# --------------------------------------------------------------------- #


def ids_from_stream(
    stream: bytes,
    n_values: int,
    seq_bytes: int,
    order: Linearization,
    arena: ScratchArena,
) -> np.ndarray:
    """Rebuild the ID vector from a linearized stream without the matrix.

    Inverse of :func:`linearize_ids`: it reads the byte planes as
    (possibly strided) views of the stream and accumulates them in place
    into an arena-owned ``int32`` vector; the ID matrix never exists.
    """
    buf = np.frombuffer(stream, dtype=np.uint8)
    if buf.size != n_values * seq_bytes:
        raise ValueError("linearized buffer does not match matrix shape")
    if order is Linearization.COLUMN:
        planes = buf.reshape(seq_bytes, n_values)
    else:
        planes = buf.reshape(n_values, seq_bytes).T
    ids = arena.array("dec_ids", n_values, np.int32)
    if n_values == 0:
        return ids
    np.copyto(ids, planes[0], casting="safe")
    for k in range(1, seq_bytes):
        ids <<= np.int32(8)
        ids |= planes[k]
    return ids


def fill_high_from_seqs(
    seqs: np.ndarray,
    high_bytes: int,
    raw_out: np.ndarray,
    arena: ScratchArena,
) -> None:
    """Scatter sequence bytes into the high columns of a raw-layout chunk.

    ``raw_out`` is the ``N x word_bytes`` little-endian output buffer;
    the most significant sequence byte lands in the last stored byte of
    each word, matching :func:`pack_sequences`.
    """
    w = raw_out.shape[1]
    scratch = arena.array("dec_shift", seqs.size, np.uint32)
    for k in range(high_bytes):
        shift = 8 * k
        if shift:
            np.right_shift(seqs, np.uint32(shift), out=scratch)
            np.copyto(raw_out[:, w - high_bytes + k], scratch, casting="unsafe")
        else:
            np.copyto(raw_out[:, w - high_bytes + k], seqs, casting="unsafe")
