"""PRIMACY: the PReconditioning Id-MApper for Compressing incompressibilitY.

This package is the paper's primary contribution.  The pipeline (Fig 2):

1. :mod:`repro.core.chunking` -- split the value stream into chunks
   (3 MB by default, the paper's empirically chosen size).
2. :mod:`repro.core.bytesplit` -- view each chunk as an ``N x 8`` byte
   matrix (big-endian, so columns 0-1 are the sign/exponent bytes) and
   split it into the ``N x 2`` high-order and ``N x 6`` low-order parts.
3. :mod:`repro.core.idmap` -- frequency analysis of the 2-byte high-order
   sequences and the bijective frequency-ranked ID mapping.
4. :mod:`repro.core.linearize` -- row/column linearization of the ID byte
   matrix (column order creates the 0-byte runs, Sec II-D).
5. The ID stream goes through a standard byte-level compressor; the
   low-order matrix goes through :mod:`repro.isobar`.
6. :mod:`repro.core.primacy` -- the end-to-end compressor/codec plus the
   chunk container format and per-chunk statistics for the performance
   model.
"""

from repro.core.bytesplit import split_bytes, values_to_byte_matrix
from repro.core.chunking import Chunker, DEFAULT_CHUNK_BYTES
from repro.core.idmap import FrequencyIndex, IdMapper, IndexReusePolicy
from repro.core.kernels import ScratchArena
from repro.core.linearize import column_linearize, row_linearize
from repro.core.primacy import (
    PrimacyCodec,
    PrimacyCompressor,
    PrimacyConfig,
    PrimacyStats,
)

__all__ = [
    "values_to_byte_matrix",
    "split_bytes",
    "Chunker",
    "DEFAULT_CHUNK_BYTES",
    "FrequencyIndex",
    "IdMapper",
    "IndexReusePolicy",
    "ScratchArena",
    "column_linearize",
    "row_linearize",
    "PrimacyCodec",
    "PrimacyCompressor",
    "PrimacyConfig",
    "PrimacyStats",
]
