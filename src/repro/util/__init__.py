"""Low-level utilities shared across the PRIMACY reproduction.

This package provides the bit-level and byte-level plumbing every other
subsystem relies on:

* :mod:`repro.util.bitio` -- vectorized bit packing (NumPy).
* :mod:`repro.util.buffers` -- zero-copy byte-view normalization.
* :mod:`repro.util.varint` -- LEB128-style variable-length integers.
* :mod:`repro.util.checksum` -- from-scratch CRC-32 and Adler-32.
* :mod:`repro.util.durable` -- atomic tmp+fsync+rename publication and
  transient-I/O retry.
* :mod:`repro.util.entropy` -- Shannon entropy and repeatability metrics.
* :mod:`repro.util.timing` -- throughput timers used by the benchmark
  harness and the model calibrator.
"""

from repro.util.bitio import pack_bits
from repro.util.buffers import as_view
from repro.util.checksum import adler32, crc32
from repro.util.durable import AtomicFile, fsync_directory, retry_io
from repro.util.entropy import (
    byte_entropy,
    byte_histogram,
    normalized_entropy,
    top_byte_fraction,
)
from repro.util.timing import ThroughputTimer, Timer
from repro.util.varint import (
    decode_uvarint,
    decode_uvarint_array,
    encode_uvarint,
    encode_uvarint_array,
)

__all__ = [
    "as_view",
    "pack_bits",
    "adler32",
    "crc32",
    "AtomicFile",
    "fsync_directory",
    "retry_io",
    "byte_entropy",
    "byte_histogram",
    "normalized_entropy",
    "top_byte_fraction",
    "Timer",
    "ThroughputTimer",
    "encode_uvarint",
    "decode_uvarint",
    "encode_uvarint_array",
    "decode_uvarint_array",
]
