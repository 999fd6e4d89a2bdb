"""Adaptive binary range coder (LZMA-style) with bit-tree byte models.

Huffman coding -- the entropy stage behind ``pyzlib``/``pybzip`` -- rounds
every symbol to a whole number of bits.  Arithmetic/range coding is the
other classical "solver" family the paper's MDL argument covers, reaching
the fractional-bit entropy limit and *adapting* to the stream instead of
storing a table.  This implementation follows the well-documented LZMA
construction:

* 32-bit range coder with carry propagation through a byte cache;
* 11-bit adaptive probabilities with shift-5 updates;
* each byte coded through a 255-node bit tree; ``order=1`` keeps one
  tree per preceding byte value (an order-1 context model).

Being inherently serial (every bit's probability depends on all prior
bits), it runs at pure-Python bit-loop speed -- the same reason bzip2-
class coders are "too slow for in-situ use" in the paper.  It is
registered as ``rangecoder`` for ratio-oriented use and for the
preconditioner-generality tests.
"""

from __future__ import annotations

import numpy as np

from repro.compressors.base import Codec, CodecError, checked_uvarint, register_codec
from repro.util.varint import encode_uvarint

__all__ = ["RangeCoderCodec", "RangeEncoder", "RangeDecoder"]

_TOP = 1 << 24
_MASK32 = (1 << 32) - 1
_PROB_BITS = 11
_PROB_INIT = 1 << (_PROB_BITS - 1)  # p(0) = 0.5
_MOVE_BITS = 5


class RangeEncoder:
    """LZMA-style binary range encoder."""

    def __init__(self) -> None:
        self.low = 0
        self.range = _MASK32
        self.cache = 0
        self.cache_size = 1
        self.out = bytearray()

    def encode_bit(
        self, probs: list[int] | memoryview, index: int, bit: int
    ) -> None:
        """Code one bit under the adaptive probability at ``index``.

        ``probs`` is any mutable int sequence (``list`` or a
        ``memoryview`` over a model buffer); indexing must yield plain
        Python ints so the 32-bit arithmetic below never narrows.
        """
        p = probs[index]
        bound = (self.range >> _PROB_BITS) * p
        if bit == 0:
            self.range = bound
            probs[index] = p + (((1 << _PROB_BITS) - p) >> _MOVE_BITS)
        else:
            self.low += bound
            self.range -= bound
            probs[index] = p - (p >> _MOVE_BITS)
        while self.range < _TOP:
            self._shift_low()
            self.range = (self.range << 8) & _MASK32

    def _shift_low(self) -> None:
        if self.low < 0xFF000000 or self.low > _MASK32:
            carry = self.low >> 32
            self.out.append((self.cache + carry) & 0xFF)
            for _ in range(self.cache_size - 1):
                self.out.append((0xFF + carry) & 0xFF)
            self.cache = (self.low >> 24) & 0xFF
            self.cache_size = 0
        self.cache_size += 1
        self.low = (self.low << 8) & _MASK32

    def flush(self) -> bytes:
        """Drain the carry cache; returns the finished stream."""
        for _ in range(5):
            self._shift_low()
        return bytes(self.out)


class RangeDecoder:
    """Inverse of :class:`RangeEncoder`."""

    def __init__(self, data: bytes) -> None:
        if len(data) < 5:
            raise CodecError("range-coded stream too short")
        self.data = data
        self.pos = 5
        # First byte is the encoder's initial zero cache.
        self.code = int.from_bytes(data[1:5], "big")
        self.range = _MASK32

    def decode_bit(self, probs: list[int] | memoryview, index: int) -> int:
        """Decode one bit, mirroring :meth:`RangeEncoder.encode_bit`."""
        p = probs[index]
        bound = (self.range >> _PROB_BITS) * p
        if self.code < bound:
            bit = 0
            self.range = bound
            probs[index] = p + (((1 << _PROB_BITS) - p) >> _MOVE_BITS)
        else:
            bit = 1
            self.code -= bound
            self.range -= bound
            probs[index] = p - (p >> _MOVE_BITS)
        while self.range < _TOP:
            byte = self.data[self.pos] if self.pos < len(self.data) else 0
            self.pos += 1
            if self.pos > len(self.data) + 5:
                raise CodecError("range-coded stream exhausted")
            self.code = ((self.code << 8) | byte) & _MASK32
            self.range = (self.range << 8) & _MASK32
        return bit


@register_codec
class RangeCoderCodec(Codec):
    """Adaptive range coder over bytes (order-0 or order-1 contexts).

    Ratio-oriented: typically beats Huffman on skewed streams at a
    fraction of its speed (serial bit loop).
    """

    name = "rangecoder"

    def __init__(self, order: int = 1) -> None:
        if order not in (0, 1):
            raise ValueError("order must be 0 or 1")
        self.order = order
        # Persistent probability-model storage, reused across calls.
        # Sized for the order-1 case (256 contexts x 256 tree nodes,
        # 256 KiB) because :meth:`decompress` honors the *stream's*
        # order byte, not the constructor's.  Each call memsets its
        # slice back to ``_PROB_INIT`` -- replacing the 256x256 nested
        # Python lists that used to be rebuilt per call, which dominated
        # setup cost on block-sized inputs.  Probabilities are 11-bit,
        # so ``uint32`` never narrows the shift-5 update arithmetic.
        self._model_buf = np.empty(256 * 256, dtype=np.uint32)

    def _reset_models(self, order: int) -> np.ndarray:
        """Reset and return the model slice for ``order`` contexts."""
        n_contexts = 256 if order == 1 else 1
        models = self._model_buf[: n_contexts * 256]
        models.fill(_PROB_INIT)
        return models

    def compress(self, data: bytes) -> bytes:
        """Compress ``data`` into a self-describing stream (Codec API)."""
        data = bytes(data)
        out = bytearray(encode_uvarint(len(data)))
        out.append(self.order)
        if not data:
            return bytes(out)
        models = self._reset_models(self.order)
        enc = RangeEncoder()
        prev = 0
        order = self.order
        # A memoryview over the uint32 buffer indexes to plain Python
        # ints (no NumPy scalar per bit), keeping the serial bit loop
        # at list speed while the storage stays preallocated.
        with memoryview(models) as flat:
            for byte in data:
                probs = flat[prev << 8 : (prev + 1) << 8] if order else flat
                ctx = 1
                for shift in range(7, -1, -1):
                    bit = (byte >> shift) & 1
                    enc.encode_bit(probs, ctx, bit)
                    ctx = (ctx << 1) | bit
                prev = byte
        out += enc.flush()
        return bytes(out)

    def decompress(self, data: bytes) -> bytes:
        """Invert :meth:`compress` exactly (Codec API)."""
        n, pos = checked_uvarint(data, 0, "range-coder size header")
        if pos >= len(data):
            raise CodecError("truncated range-coded stream")
        order = data[pos]
        if order not in (0, 1):
            raise CodecError("corrupt range-coder order")
        pos += 1
        if n == 0:
            return b""
        models = self._reset_models(order)
        dec = RangeDecoder(data[pos:])
        out = bytearray()
        prev = 0
        with memoryview(models) as flat:
            for _ in range(n):
                probs = flat[prev << 8 : (prev + 1) << 8] if order else flat
                ctx = 1
                for _ in range(8):
                    ctx = (ctx << 1) | dec.decode_bit(probs, ctx)
                byte = ctx & 0xFF
                out.append(byte)
                prev = byte
        # The decoder pads a short stream with zeros; a whole stream is
        # never read past its end, so having needed the padding means the
        # stream was cut.
        if dec.pos > len(dec.data):
            raise CodecError("truncated range-coded stream")
        return bytes(out)
