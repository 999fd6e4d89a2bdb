"""Calibrated ratio x throughput scoring for planner candidates.

Each candidate's probe yields measured byte counts (the
:class:`~repro.core.PrimacyChunkStats` of compressing the chunk prefix);
this module projects them to full-chunk scale and turns them into one
comparable figure of merit::

    score = projected_full_chunk_ratio * predicted_end_to_end_throughput

Two probe-scale distortions make the raw probe numbers unusable as-is
(both were bugs in the first planner):

* **Fixed per-record output overhead.**  Every codec emits a few hundred
  bytes that do not scale with the input -- ``pyzlib``'s canonical
  Huffman table headers dominate a 2 KiB probe's output but are noise at
  chunk scale.  :data:`STATIC_CODEC_FIXED_OUT` holds per-codec
  calibrated constants; the projection subtracts them before scaling and
  adds them back once, alongside the (likewise fixed-size) inline ID
  index and record framing.
* **Serial-sum throughput.**  The Sec-III write model
  (:func:`repro.model.predict_compressed_write`) charges a bulk-
  synchronous step as the *sum* of compute + transfer + write (Eqn 3).
  In steady state the compute nodes overlap compression of chunk ``k``
  with the I/O node's transfer of chunk ``k-1``, so the sustained rate
  is bottleneck-bound, not sum-bound; scoring with the serial sum
  double-charges slow codecs.  The planner therefore scores the model's
  pipelined steady state (:attr:`repro.model.StepTimes.t_steady`) of one
  node with no disk stage: ``tau = C / max(t_compute, out/theta)``.

Compute-time calibration, from committed tables only, so decisions
depend on probe bytes alone:

* ``pyzlib`` speed is strongly data-dependent (5x across the synthetic
  corpus), so a static rate cannot rank it against ``pylzo``.  Its time
  is predicted from the probe's deterministic LZ77 parse-operation
  counts (:class:`repro.compressors.lz77.ParseStats`) through the
  committed linear model :data:`PYZLIB_PARSE_NS` -- a pure function of
  the probed bytes, which keeps planned archives bit-reproducible.
* The ``pyzlib`` run parse (zlib's ``Z_RLE``) has no hash-chain search
  to count; its whole-pipeline time is the committed rate
  :data:`PYZLIB_RLE_NS` per chunk byte.  It is tried on the whole chunk,
  so its ratio is measured, not projected.
* Every other codec uses the committed stage rates
  (:data:`STATIC_CODEC_MBPS` over the codec's input bytes,
  :data:`STATIC_PRECONDITIONER_MBPS` over chunk bytes).

All tables were measured on the development machine; absolute numbers
age with the hardware, but only their *ratios* steer the planner, and
those are stable for pure-Python codecs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compressors.lz77 import ParseStats
from repro.core.primacy import PrimacyChunkStats
from repro.model import StepTimes, tau
from repro.planner.candidates import Candidate, PlannerConfig

__all__ = [
    "PYZLIB_PARSE_NS",
    "PYZLIB_RLE_NS",
    "STATIC_CODEC_FIXED_OUT",
    "STATIC_CODEC_MBPS",
    "STATIC_PRECONDITIONER_MBPS",
    "CandidateScore",
    "score_candidate",
]

#: Solver-stage compress throughput per codec, MB/s over codec input.
STATIC_CODEC_MBPS: dict[str, float] = {
    "fpc": 4.9,
    "fpzip": 29.7,
    "huffman": 4.1,
    "null": 16000.0,
    "primacy": 2.9,  # the nested whole-pipeline meta-codec
    "pybzip": 0.4,
    "pylzo": 10.7,
    "pyzlib": 2.8,
    "rangecoder": 0.3,
    "rle": 22.2,
    "shuffle": 1.9,
}

#: Fallback for codecs absent from the table (conservative slow-ish).
_DEFAULT_CODEC_MBPS = 2.0

#: Precondition + ISOBAR-analysis throughput of the fused chunk kernels,
#: MB/s over chunk input bytes.
STATIC_PRECONDITIONER_MBPS: float = 330.0

#: Fixed per-record output bytes that do not scale with input size
#: (stream headers, Huffman code-length tables, bucket dictionaries).
#: Median of ``len(compress(prefix)) - sigma * len(prefix)`` residuals
#: across the synthetic corpus at 2-16 KiB prefixes.  Codecs absent
#: from the table are treated as overhead-free (projection then errs
#: pessimistic at probe scale, which only penalizes tiny probes).
STATIC_CODEC_FIXED_OUT: dict[str, float] = {
    "huffman": 150.0,
    "null": 8.0,
    "pylzo": 22.0,
    "pyzlib": 430.0,
    "rle": 7.0,
}

#: Linear model of the ``pyzlib`` full-pipeline compress time,
#: ns/chunk-byte, over the probe's normalized LZ77 parse counters::
#:
#:     nsb = W*(work/B) + L*(literal_bytes/B) + M*(match_bytes/B) + K
#:
#: Least-squares fit of whole-chunk compress times across the synthetic
#: corpus (see ``benchmarks/calibrate_planner.py`` to refit).
PYZLIB_PARSE_NS: tuple[float, float, float, float] = (144.1, 392.5, 88.4, -17.6)

#: Floor for the parse-model prediction, ns/byte: no pure-Python deflate
#: runs faster than this, whatever the counters claim.
_PYZLIB_MIN_NSB = 30.0

#: Whole-pipeline compress time of the ``pyzlib`` run parse, ns/chunk-byte:
#: the median over the synthetic corpus that
#: ``benchmarks/calibrate_planner.py`` prints.
PYZLIB_RLE_NS: float = 16.3


@dataclass(frozen=True)
class CandidateScore:
    """Scored probe outcome for one candidate."""

    candidate: Candidate
    score: float
    ratio: float  # projected full-chunk compression ratio
    tau_mbps: float  # predicted end-to-end write throughput
    probe_out: int  # probe record payload bytes


def _compute_seconds(
    candidate: Candidate,
    stats: PrimacyChunkStats,
    chunk_len: int,
    scale: float,
    parse: ParseStats | None,
) -> float:
    """Predicted full-chunk compress wall time for one candidate."""
    if candidate.strategy == "rle":
        return PYZLIB_RLE_NS * chunk_len * 1e-9
    if candidate.codec == "pyzlib" and parse is not None and parse.input_bytes:
        w_coef, l_coef, m_coef, const = PYZLIB_PARSE_NS
        # Counters are normalized per probed *chunk* byte (matching the
        # fit in benchmarks/calibrate_planner.py), not per tokenized
        # stream byte: the codec-visible share of the chunk varies.
        per_byte = 1.0 / max(stats.total_in, 1)
        nsb = (
            w_coef * parse.work * per_byte
            + l_coef * parse.literal_bytes * per_byte
            + m_coef * parse.match_bytes * per_byte
            + const
        )
        return max(nsb, _PYZLIB_MIN_NSB) * chunk_len * 1e-9
    comp_mbps = STATIC_CODEC_MBPS.get(candidate.codec, _DEFAULT_CODEC_MBPS)
    codec_in = (stats.high_in + stats.low_compressible_in) * scale
    prec_seconds = chunk_len / (STATIC_PRECONDITIONER_MBPS * 1e6)
    return prec_seconds + codec_in / (comp_mbps * 1e6)


def score_candidate(
    candidate: Candidate,
    stats: PrimacyChunkStats,
    record_len: int,
    config: PlannerConfig,
    *,
    chunk_len: int | None = None,
    parse: ParseStats | None = None,
) -> CandidateScore:
    """Score one candidate from its probe's chunk statistics.

    ``chunk_len`` is the full chunk the probe stands in for (defaults to
    the probe itself); ``parse`` carries the probe's LZ77 operation
    counts when the candidate's codec exposes them.

    The projection to chunk scale: per-stream codec output minus the
    codec's fixed per-record overhead scales linearly with input, while
    the fixed overhead, the inline ID index, and the record framing are
    paid once per record regardless of size.
    """
    probe_in = max(stats.total_in, 1)
    if chunk_len is None:
        chunk_len = probe_in
    scale = chunk_len / probe_in
    fixed = STATIC_CODEC_FIXED_OUT.get(candidate.codec, 0.0)
    codec_out = stats.high_out + stats.low_out
    framing = max(record_len - stats.total_out, 0)
    out_proj = (
        max(codec_out - fixed, 1.0) * scale
        + fixed
        + stats.index_bytes
        + framing
    )
    ratio = chunk_len / out_proj

    step = StepTimes(
        original_bytes=chunk_len,
        payload_bytes=out_proj,
        t_compute=_compute_seconds(candidate, stats, chunk_len, scale, parse),
        t_transfer=out_proj / (config.network_mbps * 1e6),
        t_disk=0.0,
    )
    tau_bps = tau(chunk_len, step.t_steady)
    return CandidateScore(
        candidate=candidate,
        score=ratio * tau_bps,
        ratio=ratio,
        tau_mbps=tau_bps / 1e6,
        probe_out=record_len,
    )
