"""Fit machine parameters from observed I/O runs.

The paper's model needs (theta, mu, T_prec, T_comp) for the *target*
system.  When those aren't documented, they can be recovered from a few
observed bulk-synchronous steps: each stage's time is linear in the bytes
it moves, so a least-squares line through the origin per stage yields the
effective rates.  This module fits observed
:class:`~repro.model.params.StepTimes` (such as the staging simulator's
results, or any (bytes, seconds) samples) back into
:class:`~repro.model.params.ModelInputs` -- closing the loop measure ->
fit -> predict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.model.params import ModelInputs, StepTimes
from repro.model.pipeline import io_node_times

__all__ = ["MachineFit", "fit_rate", "fit_machine", "fit_model_inputs"]


def fit_rate(samples: Sequence[tuple[float, float]]) -> float:
    """Least-squares bytes/second from (bytes, seconds) samples.

    Fits ``seconds = bytes / rate`` through the origin; the minimizer of
    ``sum (t_i - b_i/rate)^2`` is ``rate = sum(b^2) / sum(b*t)``.
    """
    if not samples:
        raise ValueError("need at least one sample")
    b = np.array([s[0] for s in samples], dtype=np.float64)
    t = np.array([s[1] for s in samples], dtype=np.float64)
    if np.any(b < 0) or np.any(t < 0):
        raise ValueError("samples must be non-negative")
    denom = float((b * t).sum())
    if denom == 0:
        return float("inf")
    return float((b * b).sum()) / denom


@dataclass(frozen=True)
class MachineFit:
    """Recovered machine rates (bytes/second) and fit quality."""

    network_bps: float
    disk_bps: float
    compute_bps: float
    n_samples: int
    residual: float  # rms relative error of total-time reconstruction

    def as_model_inputs(
        self,
        *,
        chunk_bytes: float,
        rho: float,
        alpha1: float = 1.0,
        alpha2: float = 0.0,
        sigma_ho: float = 1.0,
        sigma_lo: float = 1.0,
        metadata_bytes: float = 0.0,
    ) -> ModelInputs:
        """Convert the fitted rates into :class:`ModelInputs`."""
        return ModelInputs(
            chunk_bytes=chunk_bytes,
            rho=rho,
            network_bps=self.network_bps,
            disk_write_bps=self.disk_bps,
            preconditioner_bps=float("inf"),
            compressor_bps=self.compute_bps,
            alpha1=alpha1,
            alpha2=alpha2,
            sigma_ho=sigma_ho,
            sigma_lo=sigma_lo,
            metadata_bytes=metadata_bytes,
        )


def fit_machine(results: Iterable[StepTimes]) -> MachineFit:
    """Recover (theta, mu, compute rate) from observed step results.

    Inverts :func:`~repro.model.pipeline.io_node_times`: at unit rates it
    gives the bytes each I/O-node stage charges for a step's payload, and
    the stage's rate is the line through those (bytes, seconds) samples.
    Compute rate is fitted against *original* bytes (compression
    throughput is reported relative to input size, Eqn 2).
    """
    results = list(results)
    if not results:
        raise ValueError("need at least one observed step")
    net_samples = []
    disk_samples = []
    comp_samples = []
    for r in results:
        net_bytes, disk_bytes = io_node_times(r.payload_bytes, r.rho, 1.0, 1.0)
        net_samples.append((net_bytes, r.t_transfer))
        disk_samples.append((disk_bytes, r.t_disk))
        if r.t_compute > 0:
            comp_samples.append((r.original_bytes, r.t_compute))

    network_bps = fit_rate(net_samples)
    disk_bps = fit_rate(disk_samples)
    compute_bps = fit_rate(comp_samples) if comp_samples else float("inf")
    # Reconstruction residual: how well the fitted rates explain totals.
    rel_errors = []
    for r in results:
        t_transfer, t_disk = io_node_times(
            r.payload_bytes, r.rho, network_bps, disk_bps
        )
        predicted = StepTimes(
            original_bytes=r.original_bytes,
            payload_bytes=r.payload_bytes,
            t_compute=r.original_bytes / compute_bps,
            t_transfer=t_transfer,
            t_disk=t_disk,
            rho=r.rho,
        )
        if r.t_total > 0:
            rel_errors.append((predicted.t_total - r.t_total) / r.t_total)
    residual = float(np.sqrt(np.mean(np.square(rel_errors)))) if rel_errors else 0.0
    return MachineFit(
        network_bps=network_bps,
        disk_bps=disk_bps,
        compute_bps=compute_bps,
        n_samples=len(results),
        residual=residual,
    )


def fit_model_inputs(
    results: Iterable[StepTimes],
    *,
    chunk_bytes: float,
    rho: float,
    **model_overrides,
) -> ModelInputs:
    """One-call convenience: observe -> fit -> model inputs."""
    return fit_machine(results).as_model_inputs(
        chunk_bytes=chunk_bytes, rho=rho, **model_overrides
    )
