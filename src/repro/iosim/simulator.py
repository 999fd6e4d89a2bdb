"""The bulk-synchronous staging simulator.

Timing composition follows the paper's model assumptions exactly (so that
with zero jitter the "empirical" simulation and the analytical model agree
up to measurement noise, as they do in Fig 4):

* Each of the :math:`\\rho` compute nodes processes its chunk **in
  parallel**; the step's compute time is the slowest node (optionally
  perturbed by log-normal jitter to emulate OS noise).
* Transfers to the I/O node serialize on the collective network and incur
  the model's :math:`(1 + \\rho)` contention factor (Eqn 4/11).
* Disk I/O happens after the network barrier (bulk-synchronous, the
  checkpoint-restart pattern) at :math:`\\mu` (Eqn 5/12).
* Reads run the inverse order: disk read, transfer, then parallel
  decompression at the compute nodes.

The network and disk terms are the model's own
(:func:`repro.model.io_node_times`), and each step is the model's step
record, so end-to-end throughput is :math:`\\tau = \\rho C / t_{total}`
(Eqn 3), where C counts *original* bytes -- compression helps by
shrinking only the transfer and disk terms.  What the simulator adds is
measured per-node compute, seeded jitter and the max across nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.iosim.environment import StagingEnvironment
from repro.iosim.strategy import ChunkWork, CompressionStrategy
from repro.model import StepTimes, io_node_times

__all__ = ["SimResult", "StagingSimulator"]


@dataclass(frozen=True, kw_only=True)
class SimResult(StepTimes):
    """Outcome of one simulated bulk-synchronous I/O step."""

    direction: str  # "write" or "read"
    strategy: str
    node_works: tuple[ChunkWork, ...] = field(default=(), repr=False)


class StagingSimulator:
    """Simulates one I/O-node group (rho compute nodes + 1 I/O node)."""

    def __init__(self, env: StagingEnvironment) -> None:
        self.env = env
        self._rng = np.random.default_rng(env.seed)

    # -- helpers -----------------------------------------------------------

    def _node_chunks(self, dataset: bytes) -> list[bytes]:
        """Deal the dataset across the rho compute nodes (word-aligned)."""
        rho = self.env.rho
        n = len(dataset)
        per_node = (n // rho) & ~7  # keep whole doubles per node
        if per_node == 0:
            raise ValueError("dataset too small for the node count")
        chunks = [
            dataset[i * per_node : (i + 1) * per_node] for i in range(rho - 1)
        ]
        chunks.append(dataset[(rho - 1) * per_node :])
        return chunks

    def _jittered(self, seconds: float) -> float:
        if self.env.jitter == 0 or seconds == 0:
            return seconds
        factor = self._rng.lognormal(mean=0.0, sigma=self.env.jitter)
        return seconds * factor

    # -- steps -------------------------------------------------------------

    def simulate_write(
        self, dataset: bytes, strategy: CompressionStrategy
    ) -> SimResult:
        """One bulk-synchronous write step of ``dataset`` through this group."""
        return self._simulate("write", dataset, strategy)

    def simulate_read(
        self, dataset: bytes, strategy: CompressionStrategy
    ) -> SimResult:
        """One bulk-synchronous read step (inverse order of operations)."""
        return self._simulate("read", dataset, strategy)

    def _simulate(
        self, direction: str, dataset: bytes, strategy: CompressionStrategy
    ) -> SimResult:
        works = [strategy.process_chunk(c) for c in self._node_chunks(dataset)]
        write = direction == "write"
        t_compute = max(
            self._jittered(w.compress_seconds if write else w.decompress_seconds)
            for w in works
        )
        payload_total = sum(w.payload_bytes for w in works)
        t_transfer, t_disk = io_node_times(
            payload_total,
            self.env.rho,
            self.env.network_write_bps if write else self.env.network_read_bps,
            self.env.disk_write_bps if write else self.env.disk_read_bps,
        )
        return SimResult(
            direction=direction,
            strategy=strategy.name,
            rho=self.env.rho,
            original_bytes=sum(w.original_bytes for w in works),
            payload_bytes=payload_total,
            t_compute=t_compute,
            t_transfer=t_transfer,
            t_disk=t_disk,
            node_works=tuple(works),
        )
