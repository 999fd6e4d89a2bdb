"""LZ77 match finding with hash chains (the matcher behind ``pyzlib``).

The tokenizer produces LZ4-style *sequences*: alternating literal runs and
back-references.  Three parallel arrays plus the concatenated literal bytes
describe the whole parse::

    lit_runs[k]   literals emitted before match k   (len == n_matches + 1;
                  the final entry is the trailing literal run)
    match_lens[k] length of match k (>= MIN_MATCH)
    match_dists[k] backward distance of match k (>= 1; may be < length,
                  i.e. overlapping copies are allowed and encode runs)

Design notes (pure-Python throughput).  The parse is one Python loop; a
visited position costs a few interpreter steps:

* NumPy builds two per-position tables up front, read through memoryviews
  so the loop converts only the positions it visits: the 4-byte
  little-endian word at every position (one overlapping unaligned ``<u4``
  view) and its 16-bit multiplicative hash.
* A position whose hash chain is empty is a literal at once.  On
  incompressible data an LZ4-style *skip accelerator* widens the stride
  after consecutive misses so runtime stays bounded.
* A chain candidate is taken only when two word compares, at offsets 0
  and ``best_len - 3``, and a slice compare of the bytes between them
  pass: together they are exactly "longer than the best so far".  The
  match length then grows from the lowest set bit of the XOR of two
  ``int.from_bytes`` windows (32 bytes, then doubling).
* A match seeds the positions inside it into the hash chains (at most
  4,095 of them).  Inside a distance-1 run they all share one hash, so one
  slice assignment links them.
* One NumPy mask gathers the literal bytes at the end.

:func:`rle_tokenize` is zlib's other parse, its ``Z_RLE`` strategy: only
distance-1 matches, found from the byte runs alone, with no hash chains
and no per-byte Python.  Its token streams have the same layout, so
:func:`reassemble` and the ``pyzlib`` decoder read them; streams whose
matches all have distance 1 expand without a loop over the matches.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.compressors.base import CodecError
from repro.compressors.rle import find_runs

__all__ = [
    "MIN_MATCH",
    "ParseStats",
    "TokenStream",
    "collect_parse_stats",
    "reassemble",
    "rle_tokenize",
    "tokenize",
]

MIN_MATCH = 4
_HASH_BITS = 16
_HASH_SIZE = 1 << _HASH_BITS
_MULT = 2654435761  # Knuth multiplicative hash constant
_SEED_CAP = 4096  # a match seeds positions i + 1 .. i + _SEED_CAP - 1 at most
_RUN_SLAB = 1 << 16  # input bytes per run-finding pass of rle_tokenize


@dataclass(frozen=True)
class TokenStream:
    """The LZ77 parse of one buffer (see module docstring for layout)."""

    lit_runs: np.ndarray
    match_lens: np.ndarray
    match_dists: np.ndarray
    literals: bytes
    original_size: int

    @property
    def n_matches(self) -> int:
        """Number of back-reference tokens in the parse."""
        return self.match_lens.size

    def validate(self) -> None:
        """Structural sanity checks; raises :class:`CodecError` on failure."""
        if self.lit_runs.size != self.match_lens.size + 1:
            raise CodecError("lit_runs must have one more entry than matches")
        if self.match_lens.size != self.match_dists.size:
            raise CodecError("match_lens / match_dists length mismatch")
        if int(self.lit_runs.sum()) != len(self.literals):
            raise CodecError("literal runs do not cover the literal bytes")
        if self.match_lens.size:
            if int(self.match_lens.min()) < MIN_MATCH:
                raise CodecError("match shorter than MIN_MATCH")
            if int(self.match_dists.min()) < 1:
                raise CodecError("non-positive match distance")
        total = len(self.literals) + int(self.match_lens.sum())
        if total != self.original_size:
            raise CodecError("token stream does not cover the input")


def _tables(data: bytes) -> tuple[memoryview, memoryview]:
    """The 4-byte little-endian word at each position ``0 .. len(data) - 4``
    and its hash, as memoryviews that hand out one Python int per index."""
    # One unaligned 4-byte load per position, from an overlapping view.
    words = np.ndarray((len(data) - 3,), "<u4", data, strides=(1,)).copy()
    hashes = words * np.uint32(_MULT)
    hashes >>= np.uint32(32 - _HASH_BITS)
    return memoryview(words), memoryview(hashes)


def _common_prefix(data: bytes, a: int, b: int, limit: int) -> int:
    """Length of the common prefix of ``data[a:]`` and ``data[b:]``, at
    most ``limit``.

    Windows of 32 bytes, then 64, 128, ... are read as little-endian
    ints; the first nonzero XOR ends the prefix at its lowest set bit.
    """
    from_bytes = int.from_bytes
    length = 0
    width = 32
    while length < limit:
        end = min(length + width, limit)
        diff = from_bytes(data[a + length : a + end], "little") ^ from_bytes(
            data[b + length : b + end], "little"
        )
        if diff:
            return length + (((diff & -diff).bit_length() - 1) >> 3)
        length = end
        width += width
    return limit


def _seed(
    hashes: memoryview, head: list[int], prev: list[int], i: int, end: int, dist: int
) -> int:
    """Insert the positions after ``i`` inside the match ``[i, end)`` at
    distance ``dist`` into the hash chains, so later data can match into
    it.  Returns the first position not inserted."""
    stop = min(end, len(prev), i + _SEED_CAP)
    j = i + 1
    if dist == 1:
        # In a distance-1 run each position up to ``end - 4`` has the word,
        # so the hash, of ``i`` (which heads that chain): it links to the
        # position before it.
        run_end = min(stop, end - 3)
        if run_end > j:
            prev[j:run_end] = range(i, run_end - 1)
            head[hashes[i]] = run_end - 1
            j = run_end
    for j, hj in enumerate(hashes[j:stop], j):
        prev[j] = head[hj]
        head[hj] = j
    return stop


def _short_stream(data: bytes) -> TokenStream:
    """The parse of an input shorter than the minimum match: all literal."""
    empty = np.zeros(0, dtype=np.int64)
    return TokenStream(
        np.array([len(data)], dtype=np.int64), empty, empty, bytes(data), len(data)
    )


def _stream(
    data: bytes,
    starts: list[int] | np.ndarray,
    lens: list[int] | np.ndarray,
    dists: list[int] | np.ndarray,
) -> TokenStream:
    """The :class:`TokenStream` of the matches ``(starts, lens, dists)``."""
    n = len(data)
    match_lens = np.asarray(lens, dtype=np.int64)
    match_starts = np.asarray(starts, dtype=np.int64)
    lit_runs = np.append(match_starts, n)
    lit_runs[1:] -= match_starts + match_lens
    # One mask over the input: literal runs and matches alternate.
    spans = np.empty(2 * match_lens.size + 1, dtype=np.int64)
    spans[0::2] = lit_runs
    spans[1::2] = match_lens
    is_literal = np.zeros(spans.size, dtype=bool)
    is_literal[0::2] = True
    literals = np.frombuffer(data, dtype=np.uint8)[np.repeat(is_literal, spans)]
    return TokenStream(
        lit_runs, match_lens, np.asarray(dists, dtype=np.int64), literals.tobytes(), n
    )


def rle_tokenize(data: bytes) -> TokenStream:
    """zlib's ``Z_RLE`` parse of ``data``: distance-1 matches only.

    Every run of one byte value longer than :data:`MIN_MATCH` becomes its
    first byte as a literal plus one distance-1 match over the rest;
    every other byte is a literal.  Runs come from
    :func:`~repro.compressors.rle.find_runs` over slabs of
    ``_RUN_SLAB`` bytes, so the run tables stay slab-sized; the run open
    at a slab's end carries into the next slab.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    kept_starts = [np.zeros(0, dtype=np.int64)]
    kept_lens = [np.zeros(0, dtype=np.int64)]
    open_start, open_len = 0, 0  # the run reaching the previous slab's end
    for lo in range(0, buf.size, _RUN_SLAB):
        starts, lens = find_runs(buf[lo : lo + _RUN_SLAB])
        starts += lo
        if open_len and buf[lo] == buf[lo - 1]:
            starts[0] = open_start
            lens[0] += open_len
        elif open_len > MIN_MATCH:
            kept_starts.append(np.array([open_start]))
            kept_lens.append(np.array([open_len]))
        long = lens[:-1] > MIN_MATCH
        kept_starts.append(starts[:-1][long])
        kept_lens.append(lens[:-1][long])
        open_start, open_len = int(starts[-1]), int(lens[-1])
    if open_len > MIN_MATCH:
        kept_starts.append(np.array([open_start]))
        kept_lens.append(np.array([open_len]))
    match_starts = np.concatenate(kept_starts) + 1
    match_lens = np.concatenate(kept_lens) - 1
    return _stream(data, match_starts, match_lens, np.ones_like(match_lens))


@dataclass
class ParseStats:
    """Deterministic operation counts of one or more LZ77 parses.

    ``work`` is a composite count of the parse's data-dependent search
    operations: outer-loop steps, hash-chain walk steps, ``length >> 4``
    for every candidate that passes the one-byte check at ``best_len``
    (one per 16 matching bytes), and in-match hash-seeding steps.  It is
    a pure function of the input bytes (no clocks), which is what lets
    the adaptive planner turn it into a *reproducible* speed estimate
    for the ``pyzlib`` codec -- wall-clock probe timings would make
    planned archive bytes machine- and run-dependent.
    """

    work: int = 0
    literal_bytes: int = 0
    match_bytes: int = 0
    input_bytes: int = 0


_active_stats: ParseStats | None = None


@contextmanager
def collect_parse_stats() -> Iterator[ParseStats]:
    """Accumulate :class:`ParseStats` over every parse in the block.

    Counting runs a dedicated instrumented copy of the parse loop, so
    code outside a collection block pays nothing.  The instrumented
    parse emits bit-identical token streams (enforced by the test
    suite); only the counters differ.
    """
    global _active_stats
    stats = ParseStats()
    prev = _active_stats
    _active_stats = stats
    try:
        yield stats
    finally:
        _active_stats = prev


def tokenize(
    data: bytes,
    *,
    max_chain: int = 16,
    min_match: int = MIN_MATCH,
    skip_trigger: int = 6,
    lazy: bool = False,
) -> TokenStream:
    """Greedy (optionally lazy) LZ77 parse of ``data``.

    Parameters
    ----------
    max_chain:
        Hash-chain search depth; higher finds better matches, slower.
    min_match:
        Minimum match length worth a back-reference (>= :data:`MIN_MATCH`).
    skip_trigger:
        After ``2**skip_trigger`` consecutive literal misses, the scan stride
        grows (LZ4-style) so incompressible regions are traversed quickly.
    lazy:
        zlib-style lazy matching: before committing to a match, peek at the
        next position; if it holds a strictly longer match, emit one
        literal and take that one instead.  Better ratio, slower parse.
    """
    if _active_stats is not None:
        return _tokenize_counted(
            data,
            _active_stats,
            max_chain=max_chain,
            min_match=min_match,
            skip_trigger=skip_trigger,
            lazy=lazy,
        )
    if min_match < MIN_MATCH:
        raise ValueError(f"min_match must be >= {MIN_MATCH}")
    n = len(data)
    if n < min_match:
        return _short_stream(data)

    words, hashes = _tables(data)
    head = [-1] * _HASH_SIZE
    prev = [-1] * (n - 3)
    common = _common_prefix
    steps = range(max_chain)

    def longest(pos: int, cand: int, best_len: int) -> tuple[int, int]:
        """Walk the chain from ``cand >= 0`` for a match longer than
        ``best_len`` (``pos + best_len < n``); returns ``(best_len,
        best_pos)``, with ``best_pos`` -1 if there is none."""
        best_pos = -1
        max_len = n - pos
        first = words[pos]
        off = best_len - 3
        last = words[pos + off]
        for _ in steps:
            # Longer means equal bytes 0..3, off..best_len and between.
            if (
                words[cand + off] == last
                and words[cand] == first
                and (
                    off <= 4
                    or data[cand + 4 : cand + off] == data[pos + 4 : pos + off]
                )
            ):
                # Most such matches are exactly one byte longer.
                best_len += 1
                if (
                    best_len < max_len
                    and data[cand + best_len] == data[pos + best_len]
                ):
                    rest = best_len + 1
                    best_len = rest + common(
                        data, cand + rest, pos + rest, max_len - rest
                    )
                best_pos = cand
                if best_len == max_len:
                    break
                off = best_len - 3
                last = words[pos + off]
            cand = prev[cand]
            if cand < 0:
                break
        return best_len, best_pos

    starts: list[int] = []
    lens: list[int] = []
    dists: list[int] = []
    i = 0
    miss = 0
    limit = n - min_match
    threshold = min_match - 1
    while i <= limit:
        hv = hashes[i]
        cand = head[hv]
        head[hv] = i
        if cand >= 0:
            prev[i] = cand
            best_len, best_pos = longest(i, cand, threshold)
            if best_pos >= 0:
                # zlib-style deferral: a strictly longer match one byte
                # later beats committing now (none fits past the end).
                if lazy and i < limit and i + best_len < n - 1:
                    peek = head[hashes[i + 1]]
                    if peek >= 0 and longest(i + 1, peek, best_len)[1] >= 0:
                        miss = 0
                        i += 1
                        continue
                starts.append(i)
                lens.append(best_len)
                dists.append(i - best_pos)
                _seed(hashes, head, prev, i, i + best_len, i - best_pos)
                i += best_len
                miss = 0
                continue
        miss += 1
        i += 1 + (miss >> skip_trigger)

    return _stream(data, starts, lens, dists)


def _tokenize_counted(
    data: bytes,
    stats: ParseStats,
    *,
    max_chain: int,
    min_match: int,
    skip_trigger: int,
    lazy: bool,
) -> TokenStream:
    """Instrumented twin of :func:`tokenize` (see collect_parse_stats).

    MUST stay in lockstep with the plain parse loop above: same
    candidate walk, same skip accelerator, same lazy deferral.  The test
    suite asserts bit-identical token streams across both paths.  Its
    chain walk keeps the one-byte check at ``best_len`` and measures
    every candidate that passes it, because ``work`` counts those and
    :data:`repro.planner.cost.PYZLIB_PARSE_NS` is fitted to that count.
    """
    if min_match < MIN_MATCH:
        raise ValueError(f"min_match must be >= {MIN_MATCH}")
    n = len(data)
    if n < min_match:
        stats.input_bytes += n
        stats.literal_bytes += n
        return _short_stream(data)

    _, hashes = _tables(data)
    head = [-1] * _HASH_SIZE
    prev = [-1] * (n - 3)
    common = _common_prefix
    work = 0

    def longest(pos: int, cand: int, best_len: int) -> tuple[int, int]:
        nonlocal work
        best_pos = -1
        depth = max_chain
        max_len = n - pos
        while cand >= 0 and depth > 0:
            work += 1
            if (
                pos + best_len < n
                and data[cand + best_len] == data[pos + best_len]
            ):
                length = common(data, cand, pos, max_len)
                work += length >> 4
                if length > best_len:
                    best_len = length
                    best_pos = cand
                    if length >= max_len:
                        break
            cand = prev[cand]
            depth -= 1
        return best_len, best_pos

    starts: list[int] = []
    lens: list[int] = []
    dists: list[int] = []
    i = 0
    miss = 0
    limit = n - min_match
    threshold = min_match - 1
    while i <= limit:
        work += 1
        hv = hashes[i]
        cand = head[hv]
        head[hv] = i
        if cand >= 0:
            prev[i] = cand
            best_len, best_pos = longest(i, cand, threshold)
            if best_pos >= 0:
                if lazy and i < limit:
                    peek = head[hashes[i + 1]]
                    if longest(i + 1, peek, best_len)[1] >= 0:
                        miss = 0
                        i += 1
                        continue
                starts.append(i)
                lens.append(best_len)
                dists.append(i - best_pos)
                stop = _seed(hashes, head, prev, i, i + best_len, i - best_pos)
                work += max(stop - (i + 1), 0)
                i += best_len
                miss = 0
                continue
        miss += 1
        i += 1 + (miss >> skip_trigger)

    stream = _stream(data, starts, lens, dists)
    stats.input_bytes += n
    stats.literal_bytes += len(stream.literals)
    stats.match_bytes += n - len(stream.literals)
    stats.work += work
    return stream


def reassemble(stream: TokenStream) -> bytes:
    """Invert :func:`tokenize`: expand a token stream back to raw bytes.

    A stream whose matches all have distance 1 (every
    :func:`rle_tokenize` parse) is expanded in one pass, with no loop
    over its matches: each such match repeats the byte before it, so
    every literal is written once plus the lengths of the matches that
    directly follow it.
    """
    stream.validate()
    if stream.n_matches and int(stream.match_dists.max()) == 1:
        if stream.lit_runs[0] == 0:
            raise CodecError("match distance reaches before buffer start")
        literals = np.frombuffer(stream.literals, dtype=np.uint8)
        counts = np.ones(literals.size, dtype=np.int64)
        np.add.at(counts, np.cumsum(stream.lit_runs[:-1]) - 1, stream.match_lens)
        return np.repeat(literals, counts).tobytes()
    out = bytearray()
    literals = stream.literals
    lp = 0
    lens = stream.match_lens.tolist()
    dists = stream.match_dists.tolist()
    runs = stream.lit_runs.tolist()
    for k in range(len(lens)):
        r = runs[k]
        if r:
            out += literals[lp : lp + r]
            lp += r
        d = dists[k]
        length = lens[k]
        if d > len(out):
            raise CodecError("match distance reaches before buffer start")
        if d >= length:
            start = len(out) - d
            out += out[start : start + length]
        else:
            # Overlapping copy == periodic run with period d.
            chunk = bytes(out[-d:])
            q, rem = divmod(length, d)
            out += chunk * q + chunk[:rem]
    out += literals[lp:]
    if len(out) != stream.original_size:
        raise CodecError("reassembled size mismatch")
    return bytes(out)
