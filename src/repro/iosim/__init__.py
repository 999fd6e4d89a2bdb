"""Bulk-synchronous staging I/O simulator (the Jaguar XK6 stand-in).

The paper's end-to-end experiments (Fig 4) run on compute nodes writing
through I/O nodes to Lustre on the Jaguar XK6, with a fixed 8:1
compute-to-I/O-node ratio.  That machine is simulated here:

* :mod:`repro.iosim.environment` -- machine description (rho, collective
  network throughput theta, disk throughputs mu) plus a Jaguar-like
  preset that can be *scaled* to the speed of this reproduction's
  pure-Python codecs so the compute/communication balance matches the
  paper's.
* :mod:`repro.iosim.strategy` -- what runs on the compute node per chunk:
  nothing (null case), a vanilla codec over the whole chunk (zlib / lzo
  cases), or the PRIMACY pipeline.  Strategies *actually execute* the
  codecs and measure their times; the simulator only models the machine.
* :mod:`repro.iosim.simulator` -- composes measured compute times with
  simulated network/disk times under the paper's bulk-synchronous model,
  yielding the "empirical" end-to-end throughputs that Fig 4 compares
  against the analytical model's "theoretical" ones.  Each step is the
  model's :class:`repro.model.StepTimes`, so its pipelined
  (double-buffered) forms come with it.
"""

from repro.iosim.cluster import ClusterResult, StagingCluster
from repro.iosim.environment import (
    StagingEnvironment,
    jaguar_like_environment,
    measure_reference_decompression,
    measure_reference_throughput,
)
from repro.iosim.simulator import SimResult, StagingSimulator
from repro.iosim.trace import Span, Timeline, timeline_from_result
from repro.iosim.strategy import (
    CodecStrategy,
    CompressionStrategy,
    NullStrategy,
    PrimacyStrategy,
)

__all__ = [
    "ClusterResult",
    "StagingCluster",
    "StagingEnvironment",
    "jaguar_like_environment",
    "measure_reference_decompression",
    "measure_reference_throughput",
    "StagingSimulator",
    "SimResult",
    "Span",
    "Timeline",
    "timeline_from_result",
    "CompressionStrategy",
    "NullStrategy",
    "CodecStrategy",
    "PrimacyStrategy",
]
