"""Candidate pipeline configurations and the planner configuration.

A :class:`Candidate` names the four knobs the planner is allowed to
vary per chunk -- backend codec, high-order split width, ID-stream
linearization, and the ``pyzlib`` parse.  Everything else (chunk size,
word width, checksum, ISOBAR thresholds) is inherited from the base
:class:`~repro.core.PrimacyConfig`, so every candidate record stays
decodable from the per-record planned header plus the container/file
header alone.

The default candidate set is deliberately small (probe cost is paid per
chunk per candidate, and a ``pyzlib`` probe costs ~4x a ``pylzo`` probe
because of its per-record Huffman table construction): the paper's
default pipeline, the fast dictionary codec under the default and the
narrow split (the latter wins on smooth exponent streams), a raw
passthrough for chunks where no backend earns its compute, and the
default pipeline with zlib's run-length parse (``Z_RLE``), which codes
the runs of column-linearized streams at a fraction of the hash-chain
parse's time.  That last one is tried on the whole chunk; its record is
kept when it wins.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compressors.base import Codec, get_codec
from repro.compressors.deflate import STRATEGIES
from repro.core.idmap import IndexReusePolicy
from repro.core.linearize import Linearization
from repro.core.primacy import PrimacyConfig

__all__ = ["Candidate", "PlannerConfig", "DEFAULT_CANDIDATES"]

#: Auto probe size: ``chunk_bytes // _PROBE_DIVISOR`` clamped to
#: [_PROBE_MIN, _PROBE_MAX] and word-aligned.  Every probe pays a fixed
#: ~0.3-1.4 ms (entropy-table construction, preconditioner setup at tiny
#: scale) on top of its per-byte cost, so probes are kept at the 2 KiB
#: floor until chunks reach megabytes; the cost model's projection
#: (fixed per-record overhead amortization, see
#: :data:`repro.planner.cost.STATIC_CODEC_FIXED_OUT`) is what keeps
#: such small probes honest about full-chunk ratios.
_PROBE_DIVISOR = 512
_PROBE_MIN = 2 * 1024
_PROBE_MAX = 16 * 1024


@dataclass(frozen=True)
class Candidate:
    """One point of the planner's candidate space.

    ``strategy`` is the ``pyzlib`` parse (:data:`repro.compressors.
    deflate.STRATEGIES`).  The planned record does not store it: one
    decoder reads both parses.  A ``"rle"`` candidate is scored on the
    whole chunk, not on a probe (see :attr:`whole_chunk`).
    """

    codec: str = "pyzlib"
    high_bytes: int = 2
    linearization: Linearization = Linearization.COLUMN
    strategy: str = "default"

    def __post_init__(self) -> None:
        if self.strategy != "default" and self.codec != "pyzlib":
            raise ValueError("only pyzlib candidates take a parse strategy")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}")

    @property
    def label(self) -> str:
        """Short human-readable name (obs labels, CLI summaries)."""
        lin = "col" if self.linearization is Linearization.COLUMN else "row"
        codec = self.codec
        if self.strategy != "default":
            codec += f"-{self.strategy}"
        return f"{codec}/hb{self.high_bytes}/{lin}"

    @property
    def whole_chunk(self) -> bool:
        """Whether the planner scores this candidate on the whole chunk.

        A run parse finds runs only where they are, so a prefix misjudges
        it: a 2 KiB probe projects ``num_plasma``'s 2.92 whole-chunk
        ratio at 2.73 and ``obs_temp``'s 1.21 at 1.36.
        """
        return self.strategy == "rle"

    def backend(self) -> Codec:
        """The codec instance that compresses this candidate's streams."""
        if self.strategy == "default":
            return get_codec(self.codec)
        return get_codec(self.codec, strategy=self.strategy)

    def config(self, base: PrimacyConfig) -> PrimacyConfig:
        """Full pipeline configuration: this candidate over ``base``.

        Planned records are always self-contained (inline index), so the
        index policy is pinned to ``PER_CHUNK`` regardless of ``base``.
        """
        return PrimacyConfig(
            codec=self.codec,
            chunk_bytes=base.chunk_bytes,
            word_bytes=base.word_bytes,
            high_bytes=self.high_bytes,
            linearization=self.linearization,
            index_policy=IndexReusePolicy.PER_CHUNK,
            isobar=base.isobar,
            isobar_granularity=base.isobar_granularity,
            checksum=base.checksum,
        )


DEFAULT_CANDIDATES: tuple[Candidate, ...] = (
    Candidate(codec="pyzlib", high_bytes=2),
    Candidate(codec="pylzo", high_bytes=2),
    Candidate(codec="pylzo", high_bytes=1),
    Candidate(codec="null", high_bytes=2),
    Candidate(codec="pyzlib", high_bytes=2, strategy="rle"),
)


@dataclass(frozen=True)
class PlannerConfig:
    """Configuration of the per-chunk planner.

    Attributes
    ----------
    base:
        Pipeline configuration supplying the knobs candidates do not
        vary (chunk size, word width, checksum, ISOBAR thresholds).
        Must use the ``PER_CHUNK`` index policy and byte-granularity
        ISOBAR (planned records never join reuse chains, and the
        planned header does not carry a granularity bit).
    candidates:
        The candidate space, probed in order; ties score to the earlier
        candidate, so order is part of the deterministic contract.
    probe_bytes:
        Prefix bytes probed per candidate; 0 picks an automatic size
        from the chunk size (see :meth:`resolved_probe_bytes`).
    network_mbps:
        The deployment point of the cost model: the paper's theta, the
        network rate one compute node's output leaves at.  Candidates are
        scored with the committed per-codec throughput tables, so
        decisions depend only on probe *bytes* and archives are
        bit-reproducible across runs, worker counts, and machines.
    """

    base: PrimacyConfig = field(default_factory=PrimacyConfig)
    candidates: tuple[Candidate, ...] = DEFAULT_CANDIDATES
    probe_bytes: int = 0
    network_mbps: float = 4.0

    def __post_init__(self) -> None:
        if not self.candidates:
            raise ValueError("planner needs at least one candidate")
        if self.probe_bytes < 0:
            raise ValueError("probe_bytes must be >= 0")
        if self.network_mbps <= 0:
            raise ValueError("network_mbps must be positive")
        if self.base.index_policy is not IndexReusePolicy.PER_CHUNK:
            raise ValueError(
                "the planner requires the PER_CHUNK index policy; planned "
                "records are self-contained and never join reuse chains"
            )
        if self.base.isobar_granularity != "byte":
            raise ValueError(
                "the planner requires byte-granularity ISOBAR (the planned "
                "record header does not carry a granularity bit)"
            )
        for cand in self.candidates:
            # Surface impossible candidates at configuration time, not
            # as a per-chunk failure in a worker process.
            cand.config(self.base)

    def resolved_probe_bytes(self, chunk_len: int) -> int:
        """Word-aligned probe size for a ``chunk_len``-byte chunk."""
        word = self.base.word_bytes
        if self.probe_bytes:
            probe = self.probe_bytes
        else:
            probe = min(max(chunk_len // _PROBE_DIVISOR, _PROBE_MIN), _PROBE_MAX)
        probe = min(probe, chunk_len)
        return max(probe - probe % word, word)
