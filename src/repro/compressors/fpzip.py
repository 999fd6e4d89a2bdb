"""fpzip-style Lorenzo-predictor compressor for float64 fields.

Reimplementation in the spirit of Lindstrom & Isenburg (TVCG 2006), the
paper's second predictive comparator (Sec V).  The pipeline:

1. Map each float64 to a *totally ordered* unsigned integer (sign-magnitude
   to biased representation), so numeric closeness becomes integer
   closeness.
2. Apply the n-dimensional **Lorenzo predictor**: each value is predicted
   from the already-seen corner of its unit hypercube.  Algebraically the
   residual field is the n-D finite difference of the data, so both the
   forward transform (nested ``diff``) and its inverse (nested ``cumsum``,
   modulo 2^64) are fully vectorized.
3. Zigzag-fold the signed residuals and emit, per value, a 0..8 byte-count
   symbol (entropy coded) plus the significant little-endian bytes.

The predictor leans entirely on *dimensional correlation*: on smooth fields
it wins, on turbulent or permuted data it collapses -- exactly the failure
mode the paper exploits in its comparison (Sec V).

Note on throughput: unlike the real fpzip (serial range coder), this
NumPy formulation is embarrassingly vectorizable, so the *throughput*
relation to PRIMACY reported in the paper does not transfer; the
compression-ratio relation does.  See EXPERIMENTS.md.
"""

from __future__ import annotations

import numpy as np

from repro.compressors.base import Codec, CodecError, checked_uvarint, register_codec
from repro.compressors.huffman import decode_symbol_block, encode_symbol_block
from repro.util.varint import encode_uvarint

__all__ = ["FpzipCodec", "float_to_ordered", "ordered_to_float"]

_SIGN = np.uint64(1 << 63)


def float_to_ordered(values: np.ndarray) -> np.ndarray:
    """Map float64 bit patterns to order-preserving uint64."""
    bits = np.ascontiguousarray(values, dtype="<f8").view(np.uint64)
    neg = (bits & _SIGN) != 0
    return np.where(neg, ~bits, bits | _SIGN)


def ordered_to_float(ordered: np.ndarray) -> np.ndarray:
    """Invert :func:`float_to_ordered`."""
    ordered = np.ascontiguousarray(ordered, dtype=np.uint64)
    neg = (ordered & _SIGN) == 0
    bits = np.where(neg, ~ordered, ordered & ~_SIGN)
    return bits.view("<f8")


def _zigzag(values: np.ndarray) -> np.ndarray:
    signed = values.view(np.int64)
    return ((signed << np.int64(1)) ^ (signed >> np.int64(63))).view(np.uint64)


def _unzigzag(values: np.ndarray) -> np.ndarray:
    # Logical (unsigned) shift, then flip all bits when the sign bit was set.
    v = np.asarray(values, dtype=np.uint64)
    sign = np.uint64(0) - (v & np.uint64(1))  # 0 or 0xFFF...F, modular
    return (v >> np.uint64(1)) ^ sign


def _trailing_zero_bytes(z: np.ndarray) -> int:
    """Trailing zero bytes shared by *all* residuals (0..7)."""
    combined = int(np.bitwise_or.reduce(z)) if z.size else 0
    if combined == 0:
        return 7  # capped so the shift width stays < 64 bits
    tz = 0
    while tz < 7 and (combined & 0xFF) == 0:
        combined >>= 8
        tz += 1
    return tz


def _significant_bytes(z: np.ndarray) -> np.ndarray:
    """Per-value count of significant little-endian bytes (0..8)."""
    nb = np.zeros(z.size, dtype=np.int64)
    for k in range(8):
        nb += (z >= (np.uint64(1) << np.uint64(8 * k))).astype(np.int64)
    return nb


@register_codec
class FpzipCodec(Codec):
    """Lorenzo-predictor float compressor (fpzip analogue).

    Parameters
    ----------
    shape:
        Logical field shape (C order).  ``None`` treats the input as 1-D,
        in which case the Lorenzo predictor degenerates to delta coding.
        A trailing remainder that does not fit the shape is delta-coded 1-D.
    """

    name = "fpzip"

    def __init__(self, shape: tuple[int, ...] | None = None) -> None:
        if shape is not None:
            shape = tuple(int(s) for s in shape)
            if any(s <= 0 for s in shape):
                raise ValueError("shape entries must be positive")
            if len(shape) > 4:
                raise ValueError("at most 4 dimensions supported")
        self.shape = shape

    def compress(self, data: bytes) -> bytes:
        """Compress ``data`` into a self-describing stream (Codec API)."""
        data = bytes(data)
        n_values, tail_len = divmod(len(data), 8)
        out = bytearray(encode_uvarint(len(data)))
        out += data[len(data) - tail_len :]
        if n_values == 0:
            return bytes(out)

        values = np.frombuffer(data, dtype="<f8", count=n_values)
        ordered = float_to_ordered(values)

        if self.shape is not None:
            field_size = int(np.prod(self.shape))
            n_fields = n_values // field_size
        else:
            field_size = n_values
            n_fields = 1 if n_values else 0

        shape = self.shape if self.shape is not None else (n_values,)
        out += encode_uvarint(len(shape))
        for s in shape:
            out += encode_uvarint(s)

        body = ordered[: n_fields * field_size]
        rest = ordered[n_fields * field_size :]
        residual_parts = []
        if n_fields:
            grid = body.reshape((n_fields,) + shape)
            res = grid.copy()
            for axis in range(1, grid.ndim):
                res = np.diff(res, axis=axis, prepend=np.uint64(0))
            residual_parts.append(res.reshape(-1))
        if rest.size:
            residual_parts.append(np.diff(rest, prepend=np.uint64(0)))
        residuals = np.concatenate(residual_parts)

        # Quantized data leaves trailing zero *bytes* in every residual;
        # shift them out globally before zigzag (fpzip aligns mantissas
        # similarly).  The arithmetic shift is lossless -- the dropped bits
        # are zero -- and negation-safe, unlike shifting after zigzag.
        tz = _trailing_zero_bytes(residuals)
        if tz:
            residuals = (
                residuals.view(np.int64) >> np.int64(8 * tz)
            ).view(np.uint64)
        out.append(tz)
        z = _zigzag(residuals)
        nb = _significant_bytes(z)
        out += encode_symbol_block(nb, 9)
        z_bytes = z.astype("<u8").view(np.uint8).reshape(n_values, 8)
        mask = np.arange(8) < nb[:, None]
        payload = z_bytes[mask].tobytes()
        out += encode_uvarint(len(payload))
        out += payload
        return bytes(out)

    def decompress(self, data: bytes) -> bytes:
        """Invert :meth:`compress` exactly (Codec API)."""
        total_len, pos = checked_uvarint(data, 0, "fpzip size header")
        n_values, tail_len = divmod(total_len, 8)
        tail = data[pos : pos + tail_len]
        pos += tail_len
        if n_values == 0:
            return tail
        ndim, pos = checked_uvarint(data, pos, "fpzip dimension count")
        shape = []
        for _ in range(ndim):
            s, pos = checked_uvarint(data, pos, "fpzip dimension")
            shape.append(s)
        shape = tuple(shape)
        if 0 in shape:
            raise CodecError("corrupt fpzip shape")
        if pos >= len(data):
            raise CodecError("truncated fpzip stream")
        tz = data[pos]
        pos += 1
        if tz > 8:
            raise CodecError("corrupt fpzip trailing-zero count")
        nb, pos = decode_symbol_block(data, pos)
        nb = nb.astype(np.int64)
        if nb.size != n_values:
            raise CodecError("fpzip symbol count mismatch")
        payload_len, pos = checked_uvarint(data, pos, "fpzip payload length")
        if pos + payload_len > len(data):
            raise CodecError("truncated fpzip payload")
        payload = np.frombuffer(data, dtype=np.uint8, count=payload_len, offset=pos)
        if int(nb.sum()) != payload_len:
            raise CodecError("fpzip payload length mismatch")

        z_bytes = np.zeros((n_values, 8), dtype=np.uint8)
        mask = np.arange(8) < nb[:, None]
        z_bytes[mask] = payload
        z = z_bytes.reshape(-1).view("<u8").astype(np.uint64)
        residuals = _unzigzag(z)
        if tz:
            residuals = (
                residuals.view(np.int64) << np.int64(8 * tz)
            ).view(np.uint64)

        field_size = int(np.prod(shape))
        n_fields = n_values // field_size
        parts = []
        if n_fields:
            res = residuals[: n_fields * field_size].reshape((n_fields,) + shape)
            grid = res.copy()
            for axis in range(1, grid.ndim):
                grid = np.cumsum(grid, axis=axis, dtype=np.uint64)
            parts.append(grid.reshape(-1))
        rest = residuals[n_fields * field_size :]
        if rest.size:
            parts.append(np.cumsum(rest, dtype=np.uint64))
        ordered = np.concatenate(parts)
        values = ordered_to_float(ordered)
        return values.astype("<f8").tobytes() + tail
