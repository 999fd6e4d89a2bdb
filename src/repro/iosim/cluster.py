"""Multi-group staging cluster.

A leadership-class machine is many I/O-node groups side by side (Jaguar:
18,688 compute nodes behind hundreds of I/O nodes at the paper's 8:1
ratio).  :class:`StagingCluster` shards a dataset across ``n_groups``
independent :class:`~repro.iosim.simulator.StagingSimulator` groups that
run concurrently; the step completes when the *slowest* group finishes
(the bulk-synchronous barrier), so per-node jitter turns into the classic
straggler effect at scale.

Compression strategies are constructed per group via a factory, since
strategies carry per-run state (e.g. PRIMACY statistics).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from repro.iosim.environment import StagingEnvironment
from repro.iosim.simulator import SimResult, StagingSimulator
from repro.iosim.strategy import CompressionStrategy
from repro.model import tau

__all__ = ["ClusterResult", "StagingCluster"]


@dataclass(frozen=True)
class ClusterResult:
    """Outcome of one cluster-wide bulk-synchronous I/O step."""

    direction: str
    strategy: str
    n_groups: int
    group_results: tuple[SimResult, ...]

    @property
    def original_bytes(self) -> int:
        """Original (uncompressed) bytes across the run."""
        return sum(r.original_bytes for r in self.group_results)

    @property
    def payload_bytes(self) -> int:
        """Compressed bytes across the run."""
        return sum(r.payload_bytes for r in self.group_results)

    @property
    def makespan(self) -> float:
        """Step time: the slowest group (bulk-synchronous barrier)."""
        return max(r.t_total for r in self.group_results)

    @property
    def throughput_bps(self) -> float:
        """End-to-end throughput in bytes/second (Eqn 3)."""
        return tau(self.original_bytes, self.makespan)

    @property
    def throughput_mbps(self) -> float:
        """End-to-end throughput in MB/s."""
        return self.throughput_bps / 1e6

    @property
    def straggler_penalty(self) -> float:
        """Makespan over mean group time (1.0 = perfectly balanced)."""
        mean = sum(r.t_total for r in self.group_results) / len(
            self.group_results
        )
        if mean == 0:
            return 1.0
        return self.makespan / mean


class StagingCluster:
    """``n_groups`` independent staging groups sharing nothing."""

    def __init__(self, env: StagingEnvironment, n_groups: int) -> None:
        if n_groups < 1:
            raise ValueError("n_groups must be >= 1")
        self.env = env
        self.n_groups = n_groups
        # Distinct seeds so jitter is independent across groups.
        self._sims = [
            StagingSimulator(replace(env, seed=env.seed + 1000 * g))
            for g in range(n_groups)
        ]

    def _shards(self, dataset: bytes) -> list[bytes]:
        per_group = (len(dataset) // self.n_groups) & ~7
        if per_group == 0:
            raise ValueError("dataset too small for the group count")
        shards = [
            dataset[g * per_group : (g + 1) * per_group]
            for g in range(self.n_groups - 1)
        ]
        shards.append(dataset[(self.n_groups - 1) * per_group :])
        return shards

    def simulate_write(
        self,
        dataset: bytes,
        strategy_factory: Callable[[], CompressionStrategy],
    ) -> ClusterResult:
        """One bulk-synchronous write step across all groups."""
        return self._simulate("write", dataset, strategy_factory)

    def simulate_read(
        self,
        dataset: bytes,
        strategy_factory: Callable[[], CompressionStrategy],
    ) -> ClusterResult:
        """One bulk-synchronous read step across all groups."""
        return self._simulate("read", dataset, strategy_factory)

    def _simulate(
        self,
        direction: str,
        dataset: bytes,
        strategy_factory: Callable[[], CompressionStrategy],
    ) -> ClusterResult:
        results = tuple(
            sim._simulate(direction, shard, strategy_factory())
            for sim, shard in zip(self._sims, self._shards(dataset))
        )
        return ClusterResult(
            direction=direction,
            strategy=results[0].strategy,
            n_groups=self.n_groups,
            group_results=results,
        )
