"""Model parameter tables (paper Tables I and II) and the one step record.

All throughputs are in bytes/second and sizes in bytes; converting the
paper's MB/s axes is the caller's concern.  :math:`\\sigma` follows
Table I's convention -- *compressed vs original*, i.e. the inverse of the
compression ratio CR.

:class:`StepTimes` is Sec III's composition, written down once: the
model's predictions (:meth:`ModelOutputs.step`), the simulator's steps
(:class:`repro.iosim.SimResult`) and the planner's candidate scores all
sum, overlap and divide their stage times through it.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ModelInputs", "ModelOutputs", "StepTimes", "tau"]


def tau(original_bytes: float, seconds: float) -> float:
    """Eqn 3: end-to-end throughput, original bytes over time (inf at 0 s)."""
    if seconds == 0:
        return float("inf")
    return original_bytes / seconds


@dataclass(frozen=True)
class StepTimes:
    """One staging step: the bytes it moves and its three stage times.

    ``original_bytes`` is what the step stores (rho C across its compute
    nodes) and ``payload_bytes`` what crosses the network.  ``t_compute``
    runs in parallel on the compute nodes; ``t_transfer`` and ``t_disk``
    serialize at the I/O node that ``rho`` compute nodes share (1: one
    node alone).
    """

    original_bytes: float
    payload_bytes: float
    t_compute: float
    t_transfer: float
    t_disk: float
    rho: float = 1.0

    @property
    def t_total(self) -> float:
        """Bulk-synchronous step time (Eqns 6/13): the stages in sequence."""
        return self.t_compute + self.t_transfer + self.t_disk

    @property
    def t_steady(self) -> float:
        """Pipelined steady-state step time: compute overlaps the I/O stage."""
        return max(self.t_compute, self.t_transfer + self.t_disk)

    def makespan(self, n_steps: int) -> float:
        """Pipelined run of ``n_steps`` such steps.

        The first compute fills the pipeline and the last transfer and
        disk stage drain it; every step between costs :attr:`t_steady`.
        """
        if n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        return (
            self.t_compute
            + (n_steps - 1) * self.t_steady
            + (self.t_transfer + self.t_disk)
        )

    @property
    def bottleneck(self) -> str:
        """The stage that limits the pipelined steady state."""
        return "compute" if self.t_compute > self.t_transfer + self.t_disk else "io"

    @property
    def throughput_bps(self) -> float:
        """Bulk-synchronous end-to-end throughput in bytes/second (Eqn 3)."""
        return tau(self.original_bytes, self.t_total)

    @property
    def throughput_mbps(self) -> float:
        """Bulk-synchronous end-to-end throughput in MB/s."""
        return self.throughput_bps / 1e6

    def pipelined_throughput_bps(self, n_steps: int) -> float:
        """Eqn 3 over a pipelined run of ``n_steps`` steps."""
        return tau(n_steps * self.original_bytes, self.makespan(n_steps))

    @property
    def compressed_fraction(self) -> float:
        """Payload bytes over original bytes."""
        if self.original_bytes == 0:
            return 1.0
        return self.payload_bytes / self.original_bytes


@dataclass(frozen=True)
class ModelInputs:
    """Inputs of the performance model (paper Table I).

    Attributes
    ----------
    chunk_bytes:
        C -- chunk size handled by each compute node per step.
    metadata_bytes:
        delta -- preconditioner metadata per chunk (the ID index).
    alpha1:
        Fraction of the chunk that is compressible: for PRIMACY the
        high-order (ID-mapped) byte fraction.
    alpha2:
        Fraction of the remaining low-order part that ISOBAR classifies
        compressible.
    sigma_ho:
        Compressed/original size ratio on the high-order bytes.
    sigma_lo:
        Compressed/original size ratio on the compressible low-order bytes.
    rho:
        Compute-to-I/O-node ratio (paper experiments: 8).
    network_bps:
        theta -- collective network throughput measured at the I/O node.
    disk_write_bps:
        mu_w -- disk write throughput at the I/O node.
    disk_read_bps:
        Disk read throughput (for the read model; the paper's read
        scenario "follows the inverse order of operations").
    preconditioner_bps:
        T_prec -- average preconditioner throughput at a compute node.
    compressor_bps:
        T_comp -- backend compressor throughput at a compute node.
    decompressor_bps:
        Backend decompressor throughput (read model).
    repreconditioner_bps:
        Throughput of undoing the preconditioning on reads (ID unmapping +
        matrix reassembly).
    """

    chunk_bytes: float
    rho: float
    network_bps: float
    disk_write_bps: float
    preconditioner_bps: float
    compressor_bps: float
    alpha1: float = 0.25
    alpha2: float = 0.0
    sigma_ho: float = 1.0
    sigma_lo: float = 1.0
    metadata_bytes: float = 0.0
    disk_read_bps: float | None = None
    decompressor_bps: float | None = None
    repreconditioner_bps: float | None = None

    def __post_init__(self) -> None:
        for name in ("chunk_bytes", "rho", "network_bps", "disk_write_bps",
                     "preconditioner_bps", "compressor_bps"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("alpha1", "alpha2"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        for name in ("sigma_ho", "sigma_lo"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def read_disk_bps(self) -> float:
        """Disk read rate (defaults to the write rate)."""
        return self.disk_read_bps if self.disk_read_bps is not None else self.disk_write_bps

    @property
    def read_decompressor_bps(self) -> float:
        """Decompressor rate (defaults to the compressor rate)."""
        return (
            self.decompressor_bps
            if self.decompressor_bps is not None
            else self.compressor_bps
        )

    @property
    def read_repreconditioner_bps(self) -> float:
        """Un-preconditioning rate (defaults to T_prec)."""
        return (
            self.repreconditioner_bps
            if self.repreconditioner_bps is not None
            else self.preconditioner_bps
        )

    @property
    def compressed_fraction(self) -> float:
        """Total compressed size as a fraction of original (incl. raw part).

        ``alpha1 * sigma_ho + alpha2 * (1 - alpha1) * sigma_lo
        + (1 - alpha2) * (1 - alpha1)`` plus the metadata share.
        """
        a1, a2 = self.alpha1, self.alpha2
        frac = (
            a1 * self.sigma_ho
            + a2 * (1.0 - a1) * self.sigma_lo
            + (1.0 - a2) * (1.0 - a1)
        )
        return frac + self.metadata_bytes / self.chunk_bytes


@dataclass(frozen=True)
class ModelOutputs:
    """Outputs of the performance model (paper Table II).

    Stage times are per bulk-synchronous step, in seconds: Eqns 7-10 one
    by one, then the I/O node's transfer and disk (write or read) time.
    ``out_fraction`` is the share of the original bytes that crosses the
    network (1 without compression).
    """

    t_precondition1: float = 0.0
    t_precondition2: float = 0.0
    t_compress1: float = 0.0
    t_compress2: float = 0.0
    t_transfer: float = 0.0
    t_write: float = 0.0
    out_fraction: float = 1.0

    def step(self, inputs: ModelInputs) -> StepTimes:
        """This prediction as a step of rho chunks; Eqns 7-10 are its compute."""
        original = inputs.rho * inputs.chunk_bytes
        return StepTimes(
            original_bytes=original,
            payload_bytes=original * self.out_fraction,
            t_compute=(
                self.t_precondition1
                + self.t_precondition2
                + self.t_compress1
                + self.t_compress2
            ),
            t_transfer=self.t_transfer,
            t_disk=self.t_write,
            rho=inputs.rho,
        )

    def throughput_bps(self, inputs: ModelInputs) -> float:
        """Eqn 3: tau = rho * C / t_total."""
        return self.step(inputs).throughput_bps

    def throughput_mbps(self, inputs: ModelInputs) -> float:
        """End-to-end throughput in MB/s."""
        return self.step(inputs).throughput_mbps
