"""Streamed record framing: PRIF-style varint frames over a byte stream.

PRIF containers delimit chunk records as ``uvarint(length) | payload``;
this module lifts that framing off the file and onto a *stream* (a
socket, a pipe) where messages arrive in arbitrary slices.  The
:class:`FrameAssembler` is an incremental decoder: feed it whatever the
transport delivered and it yields every complete frame payload, holding
partial bytes until the rest arrives.

The decoding contract matches :mod:`repro.storage.format`'s adversarial
stance -- a malformed prefix raises a typed
:class:`~repro.compressors.base.CorruptionError` as soon as it is
*provably* malformed (oversized length, bad magic preamble), never
after buffering unbounded garbage, and never by hanging: for any input
stream the assembler either yields frames, raises, or asks for more
bytes with a bounded buffer.
"""

from __future__ import annotations

from repro.compressors.base import CorruptionError, TruncationError, checked_uvarint
from repro.util.varint import encode_uvarint

__all__ = ["DEFAULT_MAX_FRAME_BYTES", "FrameAssembler", "encode_frame"]

#: Upper bound on a single frame payload (1 GiB).  A length prefix past
#: this is treated as corruption immediately -- a stream peer must never
#: be able to make the assembler reserve unbounded memory.
DEFAULT_MAX_FRAME_BYTES = 1 << 30

#: A uvarint for any length <= DEFAULT_MAX_FRAME_BYTES fits in 5 bytes;
#: one more byte of continuation proves the length is out of range.
_MAX_PREFIX_BYTES = 10


class FrameAssembler:
    """Incremental ``uvarint(length) | payload`` frame decoder.

    Parameters
    ----------
    max_frame_bytes:
        Frames whose length prefix exceeds this raise
        :class:`CorruptionError` before any payload is buffered.
    magic:
        Optional payload preamble every frame must start with.  Checked
        as soon as ``len(magic)`` payload bytes are buffered, so a
        garbage stream fails fast instead of waiting for a frame that
        will never complete.
    """

    def __init__(
        self,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        magic: bytes = b"",
    ) -> None:
        if max_frame_bytes < 1:
            raise ValueError("max_frame_bytes must be positive")
        self.max_frame_bytes = max_frame_bytes
        self.magic = bytes(magic)
        self._buf = bytearray()
        #: Length of the frame currently being assembled (None: reading
        #: the prefix), plus where its payload starts in the buffer.
        self._frame_len: int | None = None
        self._payload_start = 0

    @property
    def buffered_bytes(self) -> int:
        """Bytes currently held waiting for a complete frame."""
        return len(self._buf)

    def feed(self, data: bytes | bytearray | memoryview) -> list[bytes]:
        """Absorb ``data``; return every frame it completed, in order.

        Raises :class:`CorruptionError` for an over-long length prefix,
        a length past ``max_frame_bytes``, or a payload that does not
        start with ``magic``.  A partial prefix or payload is not an
        error -- it waits for the next ``feed``.
        """
        self._buf += data
        frames: list[bytes] = []
        while True:
            frame = self._try_frame()
            if frame is None:
                return frames
            frames.append(frame)

    def _try_frame(self) -> bytes | None:
        if self._frame_len is None:
            try:
                length, pos = checked_uvarint(
                    self._buf, 0, "frame length", "frame"
                )
            except TruncationError:
                # Truncated prefix: need more bytes -- unless the prefix
                # is already longer than any in-range length allows.
                if len(self._buf) >= _MAX_PREFIX_BYTES:
                    raise CorruptionError(
                        "frame length prefix longer than "
                        f"{_MAX_PREFIX_BYTES} bytes",
                        region="frame",
                        offset=0,
                    ) from None
                return None
            if length > self.max_frame_bytes:
                raise CorruptionError(
                    f"frame length {length} exceeds the "
                    f"{self.max_frame_bytes}-byte cap",
                    region="frame",
                    offset=0,
                )
            self._frame_len = length
            self._payload_start = pos
        start, length = self._payload_start, self._frame_len
        have = len(self._buf) - start
        if self.magic and have >= 1:
            # Fail fast on garbage: check as much of the preamble as has
            # arrived, not just the complete-magic case.
            upto = min(have, len(self.magic))
            if self._buf[start : start + upto] != self.magic[:upto]:
                raise CorruptionError(
                    "frame payload does not start with "
                    f"{self.magic!r}",
                    region="frame",
                    offset=start,
                )
            if length < len(self.magic):
                raise CorruptionError(
                    f"frame length {length} shorter than its "
                    f"{len(self.magic)}-byte magic",
                    region="frame",
                    offset=0,
                )
        if have < length:
            return None
        payload = bytes(self._buf[start : start + length])
        del self._buf[: start + length]
        self._frame_len = None
        self._payload_start = 0
        return payload


def encode_frame(payload: bytes | bytearray | memoryview) -> bytes:
    """Wrap ``payload`` in the varint length prefix ``feed`` understands."""
    return encode_uvarint(len(payload)) + bytes(payload)
