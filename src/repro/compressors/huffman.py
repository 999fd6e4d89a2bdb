"""Canonical length-limited Huffman coding with a vectorized block decoder.

This is the entropy "solver" core behind the ``pyzlib`` and ``pybzip``
codecs and a registered standalone codec (``huffman``).  Three pieces:

* :func:`code_lengths` -- optimal length-limited code lengths via the
  package-merge algorithm (Larmore & Hirschberg).  Length limit is
  :data:`MAX_BITS` = 12 so the decoder can use flat 4096-entry tables.
* :func:`canonical_codes` and the decoder's flat tables -- both come from
  one prefix sum over the symbols in canonical (length, symbol) order:
  symbol *i*'s code, left-aligned to ``MAX_BITS`` bits, is the sum of
  ``2**(MAX_BITS - l_j)`` over the symbols before it, and it owns the
  next ``2**(MAX_BITS - l_i)`` window entries.  The last sum is the
  integer Kraft sum.
* :class:`HuffmanTable` -- vectorized encoding (table gather +
  :class:`repro.util.bitio.BitWriter`, in slabs) and one vectorized
  decoder for every stream size.

**Why the decoder is block-synchronized.**  Huffman decoding is a serial
bit-chase, which is hopeless in pure Python at MB scale.  The encoder
records the bit offset of every ``sync``-th symbol (cheap: one cumsum),
and the decoder chases *all blocks at once*, one NumPy lane per block.
Before chasing, it writes the code length that starts at *every* bit
offset of the stream into a ``uint8`` table, one byte per stream bit,
with a zero tail so that a lane running past the end stays put.  Four
vectorized passes build it; each looks up one ``MAX_BITS + 1``-bit
window per byte in a table of length pairs and fills two bit phases.  A
lane step is then one gather and one add, and a stream takes
``min(sync, n_symbols) - 1`` steps.  At the end, one gather per symbol
turns the recorded start positions into symbols, and every block's last
symbol must end inside the stream (so all earlier ones do), or the
stream is corrupt.  Work is O(stream bits + symbols), done in
cache-sized slabs (the lanes are chased a slab of steps at a time), with
the interpreter cost amortized over the blocks; small streams take the
same path.  Beyond the output, the temporaries are 17 bytes per stream
byte (the stream, its windows and the per-bit length table) plus the
slabs.  The offsets are metadata, charged to the stream like the
paper's :math:`\\delta`.
"""

from __future__ import annotations

import numpy as np

from repro.compressors.base import (
    CodecError,
    CorruptionError,
    TruncationError,
    checked_uvarint,
)
from repro.util.bitio import BitWriter
from repro.util.varint import encode_uvarint

__all__ = [
    "MAX_BITS",
    "SYNC_SYMBOLS",
    "code_lengths",
    "choose_sync",
    "canonical_codes",
    "HuffmanTable",
    "HuffmanCodec",
]

MAX_BITS = 12
SYNC_SYMBOLS = 1024  # upper bound on the sync block size
_SYNC_MIN = 64
# Elements per vectorized encoder or decoder pass: keeps each pass's
# temporaries in cache and bounds them on large symbol blocks.
_SLAB = 1 << 15
# Lane positions per slab of the decoder's chase, half an encoder slab:
# a slab's gathers from the length table and the windows stay in cache,
# which decodes the large blocks of a checkpoint faster than whole slabs.
_CHASE_SLAB = 1 << 14


def choose_sync(n_symbols: int) -> int:
    """Sync block size balancing decoder lane count against offset overhead.

    The vectorized decoder's wall time is ``O(sync)`` interpreter steps, so
    smaller blocks decode faster -- but each block costs ~2 bytes of offset
    metadata.  Targeting >= 64 lanes keeps the vector units busy while the
    offsets stay under ~1 % of the payload.
    """
    if n_symbols <= _SYNC_MIN:
        return _SYNC_MIN
    target = n_symbols // 64
    sync = _SYNC_MIN
    while sync < target and sync < SYNC_SYMBOLS:
        sync <<= 1
    return min(sync, SYNC_SYMBOLS)


def code_lengths(freqs: np.ndarray, max_bits: int = MAX_BITS) -> np.ndarray:
    """Optimal length-limited prefix-code lengths.

    Fast path: unconstrained Huffman depths via the classic two-queue
    merge over sorted frequencies (O(n log n), no per-node allocation).
    Only when the resulting tree exceeds ``max_bits`` -- very skewed
    distributions -- does the exact package-merge algorithm (Larmore &
    Hirschberg) run.

    Parameters
    ----------
    freqs:
        Non-negative symbol frequencies; zero-frequency symbols get length 0.
    max_bits:
        Maximum codeword length.  ``2**max_bits`` must be at least the
        number of distinct symbols present.

    Returns
    -------
    numpy.ndarray
        ``int64`` array of code lengths, same shape as ``freqs``; satisfies
        the Kraft equality over the present symbols.
    """
    freqs = np.asarray(freqs, dtype=np.int64)
    if freqs.ndim != 1:
        raise ValueError("freqs must be 1-D")
    if freqs.size and freqs.min() < 0:
        raise ValueError("frequencies must be non-negative")
    present = np.flatnonzero(freqs)
    lengths = np.zeros(freqs.size, dtype=np.int64)
    if present.size == 0:
        return lengths
    if present.size == 1:
        lengths[present[0]] = 1
        return lengths
    if present.size > (1 << max_bits):
        raise ValueError("alphabet too large for the length limit")

    fast = _huffman_depths(freqs, present)
    if int(fast.max()) <= max_bits:
        lengths[present] = fast
        return lengths
    return _package_merge(freqs, present, max_bits)


def _huffman_depths(freqs: np.ndarray, present: np.ndarray) -> np.ndarray:
    """Unconstrained Huffman code depths for the present symbols.

    Two-queue method: leaves sorted ascending in one queue, internal nodes
    appear in non-decreasing weight order in the other, so each merge step
    pops the two globally smallest items without a heap.
    """
    order = present[np.argsort(freqs[present], kind="stable")]
    leaf_w = freqs[order].tolist()
    n = len(leaf_w)
    # parent[i] for 2n-1 node slots; leaves are 0..n-1 in sorted order.
    parent = [0] * (2 * n - 1)
    node_w: list[int] = []
    li = 0  # next leaf
    ni = 0  # next internal node
    for new in range(n, 2 * n - 1):
        picks = []
        for _ in range(2):
            take_leaf = li < n and (ni >= len(node_w) or leaf_w[li] <= node_w[ni])
            if take_leaf:
                picks.append((leaf_w[li], li))
                li += 1
            else:
                picks.append((node_w[ni], n + ni))
                ni += 1
        node_w.append(picks[0][0] + picks[1][0])
        parent[picks[0][1]] = new
        parent[picks[1][1]] = new
    # Depth of each leaf = chain length to the root (last node).
    root = 2 * n - 2
    depth = [0] * (2 * n - 1)
    for node in range(root - 1, -1, -1):
        depth[node] = depth[parent[node]] + 1
    leaf_depths = np.array(depth[:n], dtype=np.int64)
    # Undo the sort so depths align with `present` order.
    out = np.empty(present.size, dtype=np.int64)
    out[np.argsort(freqs[present], kind="stable")] = leaf_depths
    return out


def _package_merge(
    freqs: np.ndarray, present: np.ndarray, max_bits: int
) -> np.ndarray:
    """Exact length-limited lengths (package-merge); the fallback.

    Level by level, adjacent pairs of the weight-sorted list are packaged
    and merged back with the leaves (a stable sort: leaves first on equal
    weights).  A symbol's length is the number of times it occurs in the
    first ``2n - 2`` items of the last list.  Leaves and packages both
    keep their order inside every list, so the first ``m`` items hold the
    first ``j`` leaves and the first ``m - j`` packages, which expand to
    the first ``2(m - j)`` items of the list before: one pass back over
    the levels counts every length, without building the packages.
    """
    order = present[np.argsort(freqs[present], kind="stable")]
    leaf_w = freqs[order]
    n = order.size
    merged_w = leaf_w
    is_leaf = []
    for _ in range(max_bits - 1):
        pairs = merged_w.size // 2 * 2
        package_w = merged_w[0:pairs:2] + merged_w[1:pairs:2]
        cat_w = np.concatenate([leaf_w, package_w])
        perm = np.argsort(cat_w, kind="stable")
        merged_w = cat_w[perm]
        is_leaf.append(perm < n)
    counts = np.zeros(n, dtype=np.int64)
    take = 2 * n - 2
    for leaf_flags in reversed(is_leaf):
        leaves = int(np.count_nonzero(leaf_flags[:take]))
        counts[:leaves] += 1
        take = 2 * (min(take, leaf_flags.size) - leaves)
    counts[:take] += 1
    lengths = np.zeros(freqs.size, dtype=np.int64)
    lengths[order] = counts
    return lengths


def _canonical_layout(
    lengths: np.ndarray, width: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Coded symbols in canonical (length, symbol) order, with their codes.

    Returns ``(order, lens, spans, starts)``: symbol ``order[i]`` has code
    length ``lens[i]`` and owns the ``spans[i] = 2**(width - lens[i])``
    left-aligned ``width``-bit words from ``starts[i]`` on.  ``starts`` is
    the exclusive prefix sum of ``spans``, which makes the codes canonical;
    ``starts[-1] + spans[-1]`` is the Kraft sum scaled by ``2**width``.
    """
    order = np.argsort(lengths, kind="stable")
    order = order[lengths[order] > 0]
    lens = lengths[order]
    spans = np.left_shift(np.int64(1), width - lens)
    starts = np.cumsum(spans) - spans
    return order, lens, spans, starts


def canonical_codes(lengths: np.ndarray) -> np.ndarray:
    """Assign canonical codes (increasing by length, then symbol index)."""
    lengths = np.asarray(lengths, dtype=np.int64)
    codes = np.zeros(lengths.size, dtype=np.uint64)
    width = int(lengths.max(initial=0))
    if width == 0:
        return codes
    order, lens, _, starts = _canonical_layout(lengths, width)
    codes[order] = starts >> (width - lens)
    return codes


class HuffmanTable:
    """Canonical Huffman table over an alphabet of ``lengths.size`` symbols.

    Encoding gathers per-symbol (code, length) arrays a slab at a time
    and appends them to a :class:`~repro.util.bitio.BitWriter`.  Decoding
    uses flat lookup tables indexed by the next ``MAX_BITS``-bit window.
    Codes are built only when encoding needs them; decode tables when the
    table is deserialized or first decodes.
    """

    def __init__(self, lengths: np.ndarray) -> None:
        self.lengths = np.asarray(lengths, dtype=np.int64)
        if self.lengths.max(initial=0) > MAX_BITS:
            raise ValueError("code length exceeds MAX_BITS")
        self._codes: np.ndarray | None = None
        self._dec: tuple[np.ndarray, np.ndarray] | None = None

    @classmethod
    def from_frequencies(cls, freqs: np.ndarray) -> "HuffmanTable":
        """Build a table with optimal lengths for ``freqs``."""
        return cls(code_lengths(freqs))

    @property
    def codes(self) -> np.ndarray:
        """Canonical codeword of every symbol (``uint64``; 0 if uncoded)."""
        if self._codes is None:
            self._codes = canonical_codes(self.lengths)
        return self._codes

    # -- encode ----------------------------------------------------------

    def encode(
        self, symbols: np.ndarray, sync: int = SYNC_SYMBOLS
    ) -> tuple[bytes, np.ndarray]:
        """Encode ``symbols``; returns ``(bitstream, block_bit_offsets)``.

        ``block_bit_offsets[k]`` is the bit position where symbol
        ``k * sync`` begins; the decoder needs it to parallelize.
        """
        symbols = np.ascontiguousarray(symbols)
        if symbols.size == 0:
            return b"", np.zeros(0, dtype=np.int64)
        # Gather and pack a slab of symbols at a time, so the per-symbol
        # temporaries stay slab-sized; a slab is whole sync blocks.
        slab = max(_SLAB - _SLAB % sync, sync)
        writer = BitWriter()
        offsets = []
        for lo in range(0, symbols.size, slab):
            part = symbols[lo : lo + slab]
            sym_lengths = self.lengths[part]
            if sym_lengths.min() == 0:
                raise CodecError("symbol with no assigned code in input")
            starts = np.cumsum(sym_lengths)
            starts -= sym_lengths
            starts += writer.bits
            offsets.append(starts[::sync])
            writer.write(self.codes[part], sym_lengths)
        return writer.getvalue(), np.concatenate(offsets)

    # -- decode ----------------------------------------------------------

    def _decode_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat decode tables, indexed by the stream bits at a symbol start.

        ``dec_sym[w]`` is the symbol whose code prefixes the ``MAX_BITS``-bit
        window ``w``.  ``pair_len[v]`` holds two bytes: the code lengths at
        the first two bit offsets of the ``MAX_BITS + 1``-bit window ``v``
        (of ``v >> 1``, then of ``v`` masked to ``MAX_BITS`` bits).  A
        window no code matches (an incomplete code) decodes as symbol 0
        with length 1.
        """
        if self._dec is None:
            order, lens, spans, starts = _canonical_layout(self.lengths, MAX_BITS)
            used = int(starts[-1] + spans[-1]) if order.size else 0
            if used > 1 << MAX_BITS:
                raise CorruptionError(
                    "invalid Huffman table: Kraft inequality violated"
                )
            dec_sym = np.zeros(1 << MAX_BITS, dtype=np.int32)
            dec_sym[:used] = np.repeat(order, spans)
            # pair[h, u] is entry v = h * 2**MAX_BITS + u: byte 0 is the
            # length of window v >> 1, byte 1 that of window u.
            pair = np.ones((2, 1 << MAX_BITS, 2), dtype=np.uint8)
            pair.reshape(-1, 2)[: 2 * used, 0] = np.repeat(lens, 2 * spans)
            pair[:, :used, 1] = np.repeat(lens, spans)
            self._dec = (dec_sym, pair.view(np.uint16).reshape(-1))
        return self._dec

    def decode(
        self,
        stream: bytes,
        n_symbols: int,
        offsets: np.ndarray,
        sync: int = SYNC_SYMBOLS,
    ) -> np.ndarray:
        """Decode ``n_symbols`` symbols from ``stream``.

        ``offsets`` are the block bit offsets returned by :meth:`encode`
        (with the same ``sync``, any size from 1 up).  Returns an ``int32``
        symbol array.  Raises :class:`CorruptionError` when the offsets do
        not fit the stream or a symbol ends past it.
        """
        if n_symbols == 0:
            return np.zeros(0, dtype=np.int32)
        if sync < 1:
            raise CorruptionError("invalid sync block size")
        n_blocks = (n_symbols + sync - 1) // sync
        if offsets.size != n_blocks:
            raise CorruptionError("block offset table does not match symbol count")
        n_bits = 8 * len(stream)
        if n_symbols > n_bits:
            raise CorruptionError("more Huffman symbols than stream bits")
        if int(offsets.min()) < 0 or int(offsets.max()) > n_bits:
            raise CorruptionError("block offsets out of range")
        dec_sym, pair_len = self._decode_tables()

        # Big-endian 32-bit window starting at every byte of the stream.
        buf = b"".join((stream, bytes(3)))
        windows = np.ndarray(
            (len(stream),), dtype=">u4", buffer=buf, strides=(1,)
        ).astype(np.int64)
        # Code length starting at every bit offset, then a zero tail: a
        # lane that runs past the end (at most MAX_BITS - 1 bits) stays put.
        # Each pass fills two bit phases of every byte, over cache-sized
        # slabs of the stream.
        mask = (1 << MAX_BITS) - 1
        bit_len = np.zeros(n_bits + MAX_BITS, dtype=np.uint8)
        by_pair = bit_len[:n_bits].view(np.uint16).reshape(-1, 4)
        for lo in range(0, len(stream), _SLAB):
            slab = windows[lo : lo + _SLAB]
            for j in range(4):
                by_pair[lo : lo + _SLAB, j] = pair_len.take(
                    (slab >> (31 - MAX_BITS - 2 * j)) & (2 * mask + 1)
                )

        # Chase every block's lane a slab of steps at a time; row s of a
        # slab holds each block's s-th symbol start in it.  The symbols at
        # those starts are then written block-major.  Rows past the last
        # block's count are decoded (their positions clipped into the
        # stream) and trimmed.
        steps = min(sync, n_symbols)
        rows = max(1, _CHASE_SLAB // n_blocks)
        pos = np.empty((min(rows, steps), n_blocks), dtype=np.intp)
        out = np.empty((n_blocks, steps), dtype=np.int32)
        end_row = n_symbols - sync * (n_blocks - 1) - 1
        pos[0] = offsets
        for lo in range(0, steps, rows):
            part = pos[: min(rows, steps - lo)]
            if lo:
                np.add(prev, bit_len[prev], out=part[0])
            prev = part[0]
            for cur in part[1:]:
                np.add(prev, bit_len[prev], out=cur)
                prev = cur
            if lo <= end_row < lo + len(part):
                last_end = int(part[end_row - lo, -1])
            w = windows.take(part >> 3, mode="clip")
            w >>= (32 - MAX_BITS) - (part & 7)
            w &= mask
            out[:, lo : lo + len(part)] = dec_sym.take(w).T

        # Each block's last symbol must end inside the stream; positions
        # only grow along a lane, so that covers every symbol.
        last = prev.copy()
        last[-1] = last_end
        if int(last.max()) >= n_bits or int((last + bit_len[last]).max()) > n_bits:
            raise CorruptionError("Huffman stream exhausted mid-symbol")
        return out.reshape(-1)[:n_symbols]

    # -- (de)serialization of the table itself ---------------------------

    def serialize(self) -> bytes:
        """Pack the code-length vector: alphabet size + 4-bit lengths."""
        lengths = self.lengths.astype(np.uint8)
        if lengths.size % 2:
            lengths = np.append(lengths, np.uint8(0))
        nibbles = (lengths[0::2] << 4) | lengths[1::2]
        return encode_uvarint(self.lengths.size) + nibbles.tobytes()

    @classmethod
    def deserialize(cls, data: bytes, offset: int = 0) -> tuple["HuffmanTable", int]:
        """Parse a serialized instance; returns ``(obj, next_offset)``."""
        alphabet, pos = checked_uvarint(data, offset, "Huffman alphabet size")
        n_nibble_bytes = (alphabet + 1) // 2
        raw = np.frombuffer(data[pos : pos + n_nibble_bytes], dtype=np.uint8)
        if raw.size != n_nibble_bytes:
            raise TruncationError("truncated Huffman table")
        lengths = np.empty(2 * raw.size, dtype=np.int64)
        lengths[0::2] = raw >> 4
        lengths[1::2] = raw & 0x0F
        lengths = lengths[:alphabet]
        if lengths.max(initial=0) > MAX_BITS:
            raise CorruptionError("Huffman code length exceeds MAX_BITS")
        table = cls(lengths)
        table._decode_tables()  # rejects an over-subscribed table
        return table, pos + n_nibble_bytes


# ---------------------------------------------------------------------------
# Self-describing symbol blocks (shared by deflate / bwt / standalone codec).
# ---------------------------------------------------------------------------


def encode_symbol_block(symbols: np.ndarray, alphabet: int) -> bytes:
    """Serialize a symbol array as a self-describing Huffman block.

    Layout::

        uvarint n_symbols
        [if n_symbols > 0]
        table (uvarint alphabet + nibble-packed code lengths)
        uvarint sync block size
        uvarint n_blocks, delta-uvarint block bit offsets
        uvarint stream length, stream bytes
    """
    symbols = np.ascontiguousarray(symbols)
    out = bytearray(encode_uvarint(symbols.size))
    if symbols.size == 0:
        return bytes(out)
    if int(symbols.min()) < 0 or int(symbols.max()) >= alphabet:
        raise ValueError("symbol out of alphabet range")
    freqs = np.zeros(alphabet, dtype=np.int64)
    for lo in range(0, symbols.size, _SLAB):
        part = symbols[lo : lo + _SLAB].astype(np.int64)
        freqs += np.bincount(part, minlength=alphabet)
    table = HuffmanTable.from_frequencies(freqs)
    sync = choose_sync(symbols.size)
    stream, offsets = table.encode(symbols, sync)
    out += table.serialize()
    out += encode_uvarint(sync)
    out += encode_uvarint(offsets.size)
    prev = 0
    for off in offsets.tolist():
        out += encode_uvarint(off - prev)
        prev = off
    out += encode_uvarint(len(stream))
    out += stream
    return bytes(out)


def decode_symbol_block(data: bytes, offset: int = 0) -> tuple[np.ndarray, int]:
    """Inverse of :func:`encode_symbol_block`; returns ``(symbols, next_offset)``."""
    n, pos = checked_uvarint(data, offset, "symbol count")
    if n == 0:
        return np.zeros(0, dtype=np.int32), pos
    table, pos = HuffmanTable.deserialize(data, pos)
    sync, pos = checked_uvarint(data, pos, "sync block size")
    if not 1 <= sync <= SYNC_SYMBOLS:
        raise CorruptionError("corrupt sync block size")
    n_blocks, pos = checked_uvarint(data, pos, "block count")
    # Every offset takes at least one byte: refuse counts the data cannot hold.
    if n_blocks > len(data) - pos:
        raise TruncationError("Huffman block offset table truncated", offset=pos)
    offsets = []
    acc = 0
    for _ in range(n_blocks):
        delta, pos = checked_uvarint(data, pos, "block offset")
        acc += delta
        offsets.append(acc)
    stream_len, pos = checked_uvarint(data, pos, "stream length")
    stream = data[pos : pos + stream_len]
    if len(stream) != stream_len:
        raise TruncationError("truncated Huffman stream", offset=pos)
    # Offsets only grow, so bounding the last bounds them all.
    if acc > 8 * stream_len:
        raise CorruptionError("block offsets out of range", offset=pos)
    offsets_arr = np.array(offsets, dtype=np.int64)
    return table.decode(stream, n, offsets_arr, sync), pos + stream_len


# ---------------------------------------------------------------------------
# Standalone order-0 codec over the byte alphabet.
# ---------------------------------------------------------------------------

from repro.compressors.base import Codec, register_codec  # noqa: E402


@register_codec
class HuffmanCodec(Codec):
    """Order-0 canonical Huffman over bytes (no LZ stage)."""

    name = "huffman"

    def compress(self, data: bytes) -> bytes:
        """Compress ``data`` into a self-describing stream (Codec API)."""
        buf = np.frombuffer(data, dtype=np.uint8)
        return encode_symbol_block(buf, 256)

    def decompress(self, data: bytes) -> bytes:
        """Invert :meth:`compress` exactly (Codec API)."""
        symbols, _ = decode_symbol_block(data, 0)
        return symbols.astype(np.uint8).tobytes()
