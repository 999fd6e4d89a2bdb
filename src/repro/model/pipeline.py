"""Write and read performance models (paper Eqns 3-13).

Two write scenarios are modeled, exactly following Section III:

* **Base case** (Sec III-B): compute nodes send raw chunks to the I/O
  node, which writes them to disk.  Network time scales with
  ``(1 + rho)`` to account for contention at the I/O node (Eqn 4), and
  disk time with ``rho`` chunks (Eqn 5).

* **PRIMACY at compute nodes** (Sec III-C): each compute node runs the
  preconditioner on its chunk (Eqn 7), ISOBAR on the low-order part
  (Eqn 8), compresses the two compressible pieces (Eqns 9-10), and ships
  compressed + raw-remainder bytes through the network (Eqn 11) to disk
  (Eqn 12).  Preconditioning and compression happen *in parallel* across
  compute nodes, so those terms are charged once per chunk, while
  transfer/write serialize at the I/O node.

Both scenarios charge the I/O node through the one function
:func:`io_node_times`, which the staging simulator calls too and
:func:`repro.model.fit_machine` inverts.

Note on Eqns 11-12: the paper's printed equations multiply the
*incompressible* remainder ``(1-alpha2)(1-alpha1)`` by ``sigma_lo`` as
well.  Stored-raw bytes are not shrunk by a compressor, so we treat that
as a typo and charge the raw remainder at full size
(:attr:`ModelInputs.compressed_fraction`).  The printed form predicts
more throughput, by 1-2 % at ``sigma_lo`` = 0.98 but 16-23 % at 0.8
(``docs/MODEL.md``).

The read model mirrors the writes in reverse order (Sec III-C: "the read
scenarios essentially follow the inverse order of operations"): disk read,
transfer, decompression, and un-preconditioning.
"""

from __future__ import annotations

from repro.model.params import ModelInputs, ModelOutputs

__all__ = [
    "io_node_times",
    "predict_base_write",
    "predict_base_read",
    "predict_compressed_write",
    "predict_compressed_read",
]


def io_node_times(
    payload_bytes: float, rho: float, network_bps: float, disk_bps: float
) -> tuple[float, float]:
    """Transfer and disk seconds of one step at the I/O node (Eqns 4/5, 11/12).

    ``payload_bytes`` is what the step's ``rho`` compute nodes ship in
    total.  Contention scales the network time of one node's share by
    ``(1 + rho)``; the disk stores the whole payload.
    """
    t_transfer = (1.0 + rho) * (payload_bytes / rho) / network_bps
    return t_transfer, payload_bytes / disk_bps


def _staged(
    inputs: ModelInputs, out_fraction: float, disk_bps: float, **compute: float
) -> ModelOutputs:
    """Outputs of rho chunks that leave the compute nodes at ``out_fraction``.

    ``compute`` holds the compute-node stage times (Eqns 7-10 or their
    read-side inverses); the I/O node's come from :func:`io_node_times`.
    """
    t_transfer, t_disk = io_node_times(
        inputs.rho * inputs.chunk_bytes * out_fraction,
        inputs.rho,
        inputs.network_bps,
        disk_bps,
    )
    return ModelOutputs(
        t_transfer=t_transfer, t_write=t_disk, out_fraction=out_fraction, **compute
    )


def predict_base_write(inputs: ModelInputs) -> ModelOutputs:
    """Base case, no compression (Eqns 4-6)."""
    return _staged(inputs, 1.0, inputs.disk_write_bps)


def predict_base_read(inputs: ModelInputs) -> ModelOutputs:
    """Base case read: disk read then transfer (inverse of Eqns 4-6)."""
    return _staged(inputs, 1.0, inputs.read_disk_bps)


def predict_compressed_write(inputs: ModelInputs) -> ModelOutputs:
    """PRIMACY at the compute nodes (Eqns 7-13; Eqns 11-12 in :func:`_staged`)."""
    c = inputs.chunk_bytes
    a1, a2 = inputs.alpha1, inputs.alpha2
    return _staged(
        inputs,
        inputs.compressed_fraction,
        inputs.disk_write_bps,
        t_precondition1=c / inputs.preconditioner_bps,  # Eqn 7
        t_precondition2=(1.0 - a1) * c / inputs.preconditioner_bps,  # Eqn 8
        t_compress1=a1 * c / inputs.compressor_bps,  # Eqn 9
        t_compress2=a2 * (1.0 - a1) * c / inputs.compressor_bps,  # Eqn 10
    )


def predict_compressed_read(inputs: ModelInputs) -> ModelOutputs:
    """PRIMACY read: disk read, transfer, decompress, un-precondition.

    Mirrors :func:`predict_compressed_write` with the inverse operations:
    compressed bytes come off disk and over the network, the backend
    decompressor expands the two compressed pieces, and the
    re-preconditioner (ID unmapping + matrix reassembly) restores the
    original layout.
    """
    c = inputs.chunk_bytes
    a1, a2 = inputs.alpha1, inputs.alpha2
    return _staged(
        inputs,
        inputs.compressed_fraction,
        inputs.read_disk_bps,
        t_precondition1=c / inputs.read_repreconditioner_bps,
        t_precondition2=(1.0 - a1) * c / inputs.read_repreconditioner_bps,
        t_compress1=a1 * c / inputs.read_decompressor_bps,
        t_compress2=a2 * (1.0 - a1) * c / inputs.read_decompressor_bps,
    )
