"""Batch NumPy BWT-stack kernels (the ``batch`` backend of ``pybzip``).

The reference stages in :mod:`repro.compressors.bwt` walk the input one
byte at a time in Python.  This module rebuilds each of them as a batch
NumPy kernel, following the same playbook as :mod:`repro.core.kernels`:
the naive implementations stay frozen as the ``reference`` backend and
equivalence oracle, selected with ``BwtCodec(kernels=...)``.  Every
kernel is a deterministic transform and is **byte-identical** to its
reference twin, so ``pybzip`` streams do not depend on the backend.

Kernel inventory (each names its reference twin):

* :func:`mtf_encode` -- move-to-front via bitmask dominance counts: the
  input splits into 64-position blocks, one ``uint64`` lane per block,
  and a position's rank decomposes into popcounts of three AND-ed masks
  (a prefix of the within-block sort by previous-occurrence time, a
  positional window, and a first-in-block filter) plus a block-start
  rank from a running last-occurrence grid.  No Python-level list is
  ever touched.
* :func:`mtf_decode` -- rank 0 leaves the alphabet untouched, so only
  the non-zero ranks are walked (one list pop + insert each); the
  emitted bytes then fill the zero stretches with one cumulative-count
  gather.  Post-BWT streams are mostly zeros.
* :func:`rle0_encode` / :func:`rle0_decode` -- zero runs extracted with
  ``flatnonzero`` edge detection; bijective base-2 RUNA/RUNB digits
  generated and consumed with ``repeat``/``cumsum``/``reduceat``
  arithmetic instead of per-symbol loops.
* :func:`bwt_inverse` -- the LF-mapping permutation is walked with
  ``np.take`` doubling (``seq[f:2f] = J[seq[:f]]``, squaring ``J`` as it
  goes), replacing the n-iteration Python walk with ``O(log n)``
  vectorized gathers over ``int32`` tables.

``pyzlib`` has no batch backend: its LZ77 parse is the scalar
:mod:`repro.compressors.lz77` walk.
"""

from __future__ import annotations

import numpy as np

from repro.compressors.base import CodecError

__all__ = [
    "mtf_encode",
    "mtf_decode",
    "rle0_encode",
    "rle0_decode",
    "bwt_inverse",
]

_RUNA = 0
_RUNB = 1
_SYM_SHIFT = 2

_MTF_BLOCK = 64  # positions per bitmask block (one uint64 lane each)

# _LOW[j] = mask of bits 0..j-1; index 64 = all ones.
_LOW = np.array([(1 << j) - 1 for j in range(65)], dtype=np.uint64)


# --------------------------------------------------------------------- #
# BWT stack: MTF / RLE0 / inverse transform                              #
# --------------------------------------------------------------------- #


def mtf_encode(data: np.ndarray) -> np.ndarray:
    """Move-to-front transform via bitmask dominance counts.

    Byte-identical to :func:`repro.compressors.bwt.mtf_encode`.  The
    recency list is never materialized: with the input split into
    64-position blocks (one ``uint64`` bit lane per block), a position's
    rank decomposes as

    * **in-block case** (its byte already occurred in this block): the
      number of distinct bytes strictly inside the window ``(P[i], i)``,
      which is the popcount of *{positions ranked at or below i in the
      within-block sort by previous-occurrence time}* AND *{positions in
      the window}* -- every mask a single ``uint64`` per position;
    * **cross-block case**: the byte's rank in the block-start recency
      list (a ``searchsorted`` against per-block sorted last-occurrence
      rows) plus the popcount of first-in-block positions before ``i``
      whose byte sat behind ours at the block start.

    The block-start state itself comes from a (byte, block) grid of
    within-block last occurrences swept with one running maximum.
    """
    data = np.ascontiguousarray(data, dtype=np.uint8)
    n = data.size
    if n == 0:
        return np.empty(0, dtype=np.int64)

    # Repeated bytes have rank 0 and leave the recency list untouched,
    # so only *change points* (data[i] != data[i-1]) need sequential
    # work.  When those are sparse -- post-BWT data is dominated by
    # runs -- a scalar walk over just the change points beats the
    # block machinery below by an order of magnitude.
    change = np.empty(n, dtype=bool)
    change[0] = True
    change[1:] = data[1:] != data[:-1]
    cp = np.flatnonzero(change)
    if cp.size * 6 <= n:
        alphabet = list(range(256))
        vals = []
        append = vals.append
        for byte in data[cp].tolist():
            r = alphabet.index(byte)
            if r:
                del alphabet[r]
                alphabet.insert(0, byte)
            append(r)
        out = np.zeros(n, dtype=np.int64)
        out[cp] = vals
        return out

    B = _MTF_BLOCK
    nb = (n + B - 1) // B
    npad = nb * B

    # Previous occurrence of the same byte (-1: never), via one stable
    # argsort that groups positions by byte.
    order = np.argsort(data, kind="stable").astype(np.int32)
    P = np.full(npad, -1, dtype=np.int32)
    if n > 1:
        same = data[order[1:]] == data[order[:-1]]
        P[order[1:][same]] = order[:-1][same]

    # Block-start last-occurrence grid lastpos[c, k]: last index of byte
    # c before block k, or the virtual time -(c+1) encoding the initial
    # alphabet order.  Within-byte positions are ascending in ``order``,
    # so the last occurrence per (byte, block) group is one edge detect;
    # a shifted running maximum turns per-block occurrences into
    # "state before block k".
    grid = np.full((256, nb + 1), -(n + 512), dtype=np.int32)
    grid[:, 0] = -1 - np.arange(256, dtype=np.int32)
    blk_of = order >> 6
    key = data[order].astype(np.int32) * np.int32(nb) + blk_of
    last_in_group = np.empty(n, dtype=bool)
    last_in_group[:-1] = key[1:] != key[:-1]
    last_in_group[-1] = True
    tail = order[last_in_group]
    grid[data[tail], blk_of[last_in_group] + 1] = tail
    lastpos = np.maximum.accumulate(grid, axis=1)[:, :-1]  # (256, nb)
    lpT = np.ascontiguousarray(lastpos.T)  # (nb, 256)

    pblk = np.arange(npad, dtype=np.int32) >> 6
    dpad = np.zeros(npad, dtype=np.int32)
    dpad[:n] = data
    flat_idx = (pblk << 8) + dpad
    L = lpT.reshape(-1)[flat_idx]  # own byte's lastpos at the block start
    s = pblk << 6
    inb = (P >= s).reshape(nb, B)

    local = np.arange(B, dtype=np.int32)
    bit = np.uint64(1) << local.astype(np.uint64)
    lt_mask = _LOW[local][None, :]  # bits of positions before i

    # Case A masks.  Ties in P occur only at -1, strictly below every
    # in-block threshold, so any tie order sorts identically for the
    # prefixes we read.
    Pr = P.reshape(nb, B)
    sP = np.argsort(Pr, axis=1)
    rP = np.empty((nb, B), dtype=np.int32)
    np.put_along_axis(rP, sP, np.broadcast_to(local, (nb, B)), axis=1)
    pmP = np.bitwise_or.accumulate(
        np.uint64(1) << sP.astype(np.uint64), axis=1
    )
    mask_le = np.take_along_axis(pmP, rP, axis=1)  # {p: P[p] <= P[i]}
    lo = np.clip(Pr - s.reshape(nb, B) + 1, 0, 64)  # window floor bit
    cnt_a = np.bitwise_count(mask_le & ~_LOW[lo] & lt_mask)

    # Case B masks.  L values tie only between identical bytes, which
    # cannot both be first-in-block, so the first-in-block AND filter
    # makes any tie order exact here as well.
    Lr = L.reshape(nb, B)
    sL = np.argsort(Lr, axis=1)
    rL = np.empty((nb, B), dtype=np.int32)
    np.put_along_axis(rL, sL, np.broadcast_to(local, (nb, B)), axis=1)
    pmL = np.bitwise_or.accumulate(
        np.uint64(1) << sL.astype(np.uint64), axis=1
    )
    pmL = np.concatenate(
        (np.zeros((nb, 1), dtype=np.uint64), pmL[:, :-1]), axis=1
    )
    mask_lt = np.take_along_axis(pmL, rL, axis=1)  # {p: L[p] < L[i]}
    fm = np.bitwise_or.reduce(
        np.where(inb, np.uint64(0), bit[None, :]), axis=1
    )
    cnt_b = np.bitwise_count(mask_lt & fm[:, None] & lt_mask)

    # Block-start rank of every byte: lastpos values are distinct inside
    # a block row (real positions are unique, virtual times are unique,
    # and the two ranges never meet), so the descending rank is a
    # permutation scatter of the ascending argsort -- no searchsorted.
    asc = np.argsort(lpT, axis=1)
    rnk = np.empty((nb, 256), dtype=np.int32)
    np.put_along_axis(
        rnk,
        asc,
        np.broadcast_to(np.arange(255, -1, -1, dtype=np.int32), (nb, 256)),
        axis=1,
    )
    base = rnk.reshape(-1)[flat_idx].reshape(nb, B)

    out = np.where(
        inb, cnt_a.astype(np.int32), base + cnt_b.astype(np.int32)
    )
    return out.reshape(-1)[:n].astype(np.int64)


def mtf_decode(ranks: np.ndarray) -> np.ndarray:
    """Inverse MTF, byte-identical to the reference decoder.

    Rank 0 leaves the alphabet order untouched, so the only sequential
    work is at *non-zero* ranks: walk those with a plain list alphabet
    (each step is one pop + insert), collect the emitted bytes, then
    scatter them over the zero stretches with one cumulative-count
    gather.  Post-BWT streams are mostly zeros, so the scalar walk
    touches a small fraction of the positions.
    """
    rk = np.ascontiguousarray(ranks, dtype=np.int64)
    n = rk.size
    if n == 0:
        return np.empty(0, dtype=np.uint8)
    if int(rk.min()) < 0 or int(rk.max()) > 255:
        raise CodecError("MTF rank out of range")
    nonzero = rk != 0
    alphabet = list(range(256))
    emitted = [0]  # the front byte before any non-zero rank: byte 0
    append = emitted.append
    for r in rk[nonzero].tolist():
        byte = alphabet.pop(r)
        alphabet.insert(0, byte)
        append(byte)
    vals = np.array(emitted, dtype=np.uint8)
    # Position i outputs the byte emitted by the latest non-zero rank
    # at or before i (vals[0] when there is none yet).
    return vals[np.cumsum(nonzero)]


def rle0_encode(ranks: np.ndarray) -> np.ndarray:
    """Vectorized RLE0: bijective base-2 RUNA/RUNB digits for zero runs.

    Byte-identical to ``bwt._rle0_encode``.  Zero runs come from one
    edge-detection pass; each run of length ``m`` emits the low bits of
    ``m + 1`` (its bijective base-2 digits), generated for all runs at
    once with a ``repeat``/``cumsum`` ragged expansion; literal symbols
    shift up by one and everything lands at its output offset with one
    scatter.
    """
    v = np.ascontiguousarray(ranks, dtype=np.int64)
    n = v.size
    if n == 0:
        return np.empty(0, dtype=np.int64)
    zero = v == 0
    nz_pos = np.flatnonzero(~zero)

    # Zero-run starts / lengths via edge detection.
    run_start = np.flatnonzero(zero & np.concatenate(([True], ~zero[:-1])))
    if run_start.size:
        if nz_pos.size:
            nxt = np.searchsorted(nz_pos, run_start)
            run_end = np.where(
                nxt < nz_pos.size,
                nz_pos[np.minimum(nxt, nz_pos.size - 1)],
                n,
            )
        else:
            run_end = np.full(run_start.size, n, dtype=np.int64)
        run_len = run_end - run_start
        # Digit count = bit_length(m + 1) - 1; frexp is exact here.
        m1 = (run_len + 1).astype(np.float64)
        n_digits = (np.frexp(m1)[1] - 1).astype(np.int64)
    else:
        run_len = np.empty(0, dtype=np.int64)
        n_digits = np.empty(0, dtype=np.int64)

    total = int(n_digits.sum()) + nz_pos.size
    out = np.empty(total, dtype=np.int64)

    # Event order == input order; each event's output offset is the
    # running sum of preceding event widths.
    ev_pos = np.concatenate((nz_pos, run_start))
    ev_width = np.concatenate(
        (np.ones(nz_pos.size, dtype=np.int64), n_digits)
    )
    order = np.argsort(ev_pos, kind="stable")
    ev_width = ev_width[order]
    ev_off = np.concatenate(([0], np.cumsum(ev_width)[:-1]))

    is_lit = order < nz_pos.size
    out[ev_off[is_lit]] = v[nz_pos] + _SYM_SHIFT - 1

    run_off = ev_off[~is_lit]  # run events keep their original order
    if run_off.size:
        digit_idx = np.arange(int(n_digits.sum()), dtype=np.int64)
        k = digit_idx - np.repeat(
            np.concatenate(([0], np.cumsum(n_digits)[:-1])), n_digits
        )
        m_rep = np.repeat(run_len + 1, n_digits)
        out[np.repeat(run_off, n_digits) + k] = (m_rep >> k) & 1
    return out


def rle0_decode(
    symbols: np.ndarray, max_size: int | None = None
) -> np.ndarray:
    """Vectorized inverse of :func:`rle0_encode` (and the reference).

    ``max_size`` bounds the expanded output; a corrupt stream whose runs
    would exceed it fails with :class:`CodecError` *before* any giant
    allocation (the reference decoder only notices after expanding).
    """
    s = np.ascontiguousarray(symbols, dtype=np.int64)
    n = s.size
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if int(s.min()) < 0:
        raise CodecError("negative RLE0 symbol")
    is_digit = s <= _RUNB
    d_pos = np.flatnonzero(is_digit)

    run_total = np.empty(0, dtype=np.int64)
    group_start_pos = np.empty(0, dtype=np.int64)
    if d_pos.size:
        # Maximal digit groups = consecutive positions in d_pos.
        new_group = np.concatenate(([True], np.diff(d_pos) > 1))
        group_heads = np.flatnonzero(new_group)
        group_sizes = np.diff(np.append(group_heads, d_pos.size))
        if int(group_sizes.max()) > 62:
            raise CodecError("RLE0 run overflows 62 bits")
        j = np.arange(d_pos.size, dtype=np.int64) - np.repeat(
            group_heads, group_sizes
        )
        contrib = (s[d_pos] + 1) << j
        run_total = np.add.reduceat(contrib, group_heads)
        group_start_pos = d_pos[group_heads]

    # Per-symbol output widths: literals 1, digit-group heads the whole
    # run, other digits 0.  Zeros need no scatter -- the output buffer
    # starts zeroed.
    width = np.ones(n, dtype=np.int64)
    width[is_digit] = 0
    width[group_start_pos] = run_total
    total = int(width.sum())
    if max_size is not None and total > max_size:
        raise CodecError("RLE0 stream expands past the declared size")
    off = np.concatenate(([0], np.cumsum(width)[:-1]))
    out = np.zeros(total, dtype=np.int64)
    lit_pos = np.flatnonzero(~is_digit)
    out[off[lit_pos]] = s[lit_pos] - _SYM_SHIFT + 1
    return out


def bwt_inverse(last: np.ndarray, primary: int) -> np.ndarray:
    """Invert the BWT by walking the LF permutation with take-doubling.

    Byte-identical to :func:`repro.compressors.bwt.bwt_inverse`.  The
    n-step Python walk becomes ``O(log n)`` vectorized gathers:
    ``seq[f:2f] = J[seq[:f]]`` with ``J`` squared (``J = J[J]``) as the
    filled prefix doubles.  All tables are ``int32`` (block sizes are
    far below 2^31), halving gather traffic.
    """
    last = np.ascontiguousarray(last, dtype=np.uint8)
    n = last.size
    if n == 0:
        return last.copy()
    if not 0 <= primary < n:
        raise CodecError("BWT primary index out of range")
    counts = np.bincount(last, minlength=256)
    starts = np.zeros(256, dtype=np.int32)
    starts[1:] = np.cumsum(counts[:-1], dtype=np.int32)
    order = np.argsort(last, kind="stable")
    occ = np.empty(n, dtype=np.int32)
    occ[order] = np.arange(n, dtype=np.int32) - starts[last[order]]
    lf = starts[last] + occ

    seq = np.empty(n, dtype=np.int32)
    seq[0] = primary
    filled = 1
    jump = lf
    while filled < n:
        m = min(filled, n - filled)
        seq[filled : filled + m] = jump[seq[:m]]
        filled += m
        if filled < n:
            jump = jump[jump]
    return last[seq][::-1].copy()
