"""Chunking of value streams for in-situ processing.

The paper processes data in 3 MB chunks (Sec II-B): small enough for
low-memory in-situ operation on compute nodes, large enough that compressor
efficiency has leveled off.  The chunker slices a raw byte buffer into
whole-word chunks; a trailing partial word (possible when compressing
arbitrary byte streams through the codec interface) is carried separately
as a tail.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.buffers import as_view

__all__ = ["DEFAULT_CHUNK_BYTES", "Chunk", "Chunker"]

DEFAULT_CHUNK_BYTES = 3 * 1024 * 1024


@dataclass(frozen=True)
class Chunk:
    """One chunk of the input stream.

    ``data`` is a zero-copy :class:`memoryview` into the caller's buffer
    (it compares equal to the corresponding ``bytes``); call
    ``bytes(chunk.data)`` only when an owned copy is genuinely needed.
    """

    index: int
    offset: int
    data: memoryview


class Chunker:
    """Splits byte buffers into fixed-size, word-aligned chunks.

    Parameters
    ----------
    chunk_bytes:
        Target chunk size; rounded down to a multiple of ``word_bytes``.
    word_bytes:
        Element width (8 for float64).  Every chunk holds whole words.
    """

    def __init__(
        self, chunk_bytes: int = DEFAULT_CHUNK_BYTES, word_bytes: int = 8
    ) -> None:
        if word_bytes < 1:
            raise ValueError("word_bytes must be positive")
        if chunk_bytes < word_bytes:
            raise ValueError("chunk_bytes must hold at least one word")
        self.word_bytes = word_bytes
        self.chunk_bytes = (chunk_bytes // word_bytes) * word_bytes

    def split(
        self, data: bytes | bytearray | memoryview
    ) -> tuple[list[Chunk], bytes]:
        """Split ``data`` into chunks plus a sub-word tail.

        Returns ``(chunks, tail)`` where ``tail`` is the trailing
        ``len(data) % word_bytes`` bytes (stored raw by the container).
        Chunks are memoryview slices into ``data`` -- no payload bytes
        are copied here, whatever buffer type the caller passes.
        """
        view = as_view(data)
        usable = len(view) - (len(view) % self.word_bytes)
        tail = bytes(view[usable:])
        chunks = [
            Chunk(
                index=i,
                offset=off,
                data=view[off : min(off + self.chunk_bytes, usable)],
            )
            for i, off in enumerate(range(0, usable, self.chunk_bytes))
        ]
        return chunks, tail
