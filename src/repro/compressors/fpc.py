"""FPC: high-speed predictive compressor for double-precision data.

Reimplementation of Burtscher & Ratanaworabhan's FPC (IEEE TC 2009), the
paper's first predictive-coding comparator (Sec V).  Per value:

1. Two predictors guess the next 64-bit pattern: **FCM** (finite context
   method -- a hash table keyed by recent value history) and **DFCM**
   (the same over value *deltas*).
2. The predictor whose XOR with the true value has more leading zero
   bytes wins; a header nibble stores 1 selector bit + 3 bits of
   leading-zero-byte count (FPC's quirk: count 4 is encoded as 3, since
   {0,1,2,3,5,6,7,8} fit in 3 bits).
3. The non-zero tail bytes of the XOR residual are emitted verbatim.

Prediction tables make the value loop inherently serial -- each prediction
depends on state updated by the previous value -- so this codec runs a
tight scalar loop over Python ints.  That is faithful to the algorithm;
its *relative* standing versus PRIMACY on compression ratio (the paper's
Sec V claim) is implementation-independent.
"""

from __future__ import annotations

from repro.compressors.base import Codec, CodecError, checked_uvarint, register_codec
from repro.util.varint import encode_uvarint

__all__ = ["FpcCodec"]

_MASK64 = (1 << 64) - 1
# Leading-zero-byte counts representable in 3 bits (FPC convention).
_LZB_TO_CODE = [0, 1, 2, 3, 3, 4, 5, 6, 7]
_CODE_TO_LZB = [0, 1, 2, 3, 5, 6, 7, 8]


@register_codec
class FpcCodec(Codec):
    """FCM + DFCM predictive coder for float64 streams.

    Parameters
    ----------
    table_bits:
        log2 of the predictor hash-table size (FPC's command-line knob;
        larger tables predict better and use more memory).
    """

    name = "fpc"

    def __init__(self, table_bits: int = 16) -> None:
        if not 4 <= table_bits <= 24:
            raise ValueError("table_bits must be in [4, 24]")
        self.table_bits = table_bits

    # -- compression -------------------------------------------------------

    def compress(self, data: bytes) -> bytes:
        """Compress ``data`` into a self-describing stream (Codec API)."""
        data = bytes(data)
        n_values, tail = divmod(len(data), 8)
        out = bytearray(encode_uvarint(len(data)))
        out.append(self.table_bits)
        out += data[len(data) - tail :]  # non-multiple-of-8 tail stored raw

        tsize = 1 << self.table_bits
        tmask = tsize - 1
        fcm = [0] * tsize
        dfcm = [0] * tsize
        fcm_hash = 0
        dfcm_hash = 0
        last = 0

        headers = bytearray()
        residuals = bytearray()
        pending_nibble = -1

        values = memoryview(data)[: n_values * 8].cast("Q")
        for value in values:
            pred_fcm = fcm[fcm_hash]
            pred_dfcm = (dfcm[dfcm_hash] + last) & _MASK64

            xor_fcm = value ^ pred_fcm
            xor_dfcm = value ^ pred_dfcm
            if xor_fcm <= xor_dfcm:
                selector = 0
                xor = xor_fcm
            else:
                selector = 1
                xor = xor_dfcm

            lzb = (64 - xor.bit_length()) >> 3 if xor else 8
            code = _LZB_TO_CODE[lzb]
            lzb = _CODE_TO_LZB[code]
            nibble = (selector << 3) | code
            if pending_nibble < 0:
                pending_nibble = nibble
            else:
                headers.append((pending_nibble << 4) | nibble)
                pending_nibble = -1
            nbytes = 8 - lzb
            residuals += xor.to_bytes(8, "big")[lzb:] if nbytes else b""

            # Update predictor state.
            fcm[fcm_hash] = value
            fcm_hash = ((fcm_hash << 6) ^ (value >> 48)) & tmask
            delta = (value - last) & _MASK64
            dfcm[dfcm_hash] = delta
            dfcm_hash = ((dfcm_hash << 2) ^ (delta >> 40)) & tmask
            last = value

        if pending_nibble >= 0:
            headers.append(pending_nibble << 4)
        out += encode_uvarint(len(headers))
        out += headers
        out += residuals
        return bytes(out)

    # -- decompression ------------------------------------------------------

    def decompress(self, data: bytes) -> bytes:
        """Invert :meth:`compress` exactly (Codec API)."""
        total_len, pos = checked_uvarint(data, 0, "fpc size header")
        if pos >= len(data) and total_len > 0:
            raise CodecError("truncated fpc stream")
        if total_len == 0:
            return b""
        table_bits = data[pos]
        pos += 1
        if not 4 <= table_bits <= 24:
            raise CodecError("corrupt fpc table size")
        n_values, tail_len = divmod(total_len, 8)
        tail = data[pos : pos + tail_len]
        pos += tail_len
        n_headers, pos = checked_uvarint(data, pos, "fpc header count")
        headers = data[pos : pos + n_headers]
        if len(headers) != n_headers:
            raise CodecError("truncated fpc headers")
        if n_headers < (n_values + 1) // 2:
            raise CodecError("fpc header count does not cover the values")
        pos += n_headers

        tsize = 1 << table_bits
        tmask = tsize - 1
        fcm = [0] * tsize
        dfcm = [0] * tsize
        fcm_hash = 0
        dfcm_hash = 0
        last = 0

        out = bytearray()
        for i in range(n_values):
            header_byte = headers[i >> 1]
            nibble = (header_byte >> 4) if (i & 1) == 0 else (header_byte & 0x0F)
            selector = nibble >> 3
            lzb = _CODE_TO_LZB[nibble & 0x07]
            nbytes = 8 - lzb
            if pos + nbytes > len(data):
                raise CodecError("truncated fpc residuals")
            xor = int.from_bytes(data[pos : pos + nbytes], "big") if nbytes else 0
            pos += nbytes

            pred = fcm[fcm_hash] if selector == 0 else (dfcm[dfcm_hash] + last) & _MASK64
            value = pred ^ xor
            out += value.to_bytes(8, "little")

            fcm[fcm_hash] = value
            fcm_hash = ((fcm_hash << 6) ^ (value >> 48)) & tmask
            delta = (value - last) & _MASK64
            dfcm[dfcm_hash] = delta
            dfcm_hash = ((dfcm_hash << 2) ^ (delta >> 40)) & tmask
            last = value

        out += tail
        if len(out) != total_len:
            raise CodecError("fpc output size mismatch")
        return bytes(out)
