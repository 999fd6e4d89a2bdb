"""Analytical performance model for staging I/O (paper Section III).

The paper models a bulk-synchronous write from :math:`\\rho` compute nodes
through one I/O node to disk, with and without PRIMACY compression at the
compute nodes, and validates the model against Jaguar XK6 measurements
(Fig 4).  This package implements:

* :mod:`repro.model.params` -- the input/output symbol tables (Tables I
  and II) as dataclasses, and the one step record :class:`StepTimes`
  with its bulk-synchronous sum, pipelined forms and Eqn-3 throughput.
* :mod:`repro.model.pipeline` -- the write model (Eqns 3-13), the mirrored
  read model, the uncompressed base case, and the I/O-node terms
  (:func:`io_node_times`) that the staging simulator shares.
* :mod:`repro.model.calibrate` -- builds model inputs from measured
  compression runs (:class:`repro.core.PrimacyStats` or plain codec
  metrics).
"""

from repro.model.calibrate import (
    calibrate_from_metrics,
    calibrate_from_stats,
)
from repro.model.fit import MachineFit, fit_machine, fit_model_inputs, fit_rate
from repro.model.params import ModelInputs, ModelOutputs, StepTimes, tau
from repro.model.pipeline import (
    io_node_times,
    predict_base_read,
    predict_base_write,
    predict_compressed_read,
    predict_compressed_write,
)

__all__ = [
    "ModelInputs",
    "ModelOutputs",
    "StepTimes",
    "tau",
    "io_node_times",
    "predict_base_write",
    "predict_base_read",
    "predict_compressed_write",
    "predict_compressed_read",
    "calibrate_from_stats",
    "calibrate_from_metrics",
    "MachineFit",
    "fit_rate",
    "fit_machine",
    "fit_model_inputs",
]
