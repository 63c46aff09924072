"""Platform-agnostic layer: the throughput experiment and IPS metrics.

Every platform model (FPGA configurations in :mod:`repro.fpga.platform`,
GPU/CPU baselines in :mod:`repro.gpu.platform`) exposes ``build_sim``
returning a discrete-event sim whose ``agent_chain`` starts one agent as
a callback chain.  The A3C agent structure of paper Figure 2 is written
once, in :class:`repro.platforms.chain.AgentChain`; this package drives
the chains inside the discrete-event engine and measures inferences per
second — the metric of Figures 8-10.
"""

from repro.platforms.metrics import IPSMeter, ips_definition_check
from repro.platforms.throughput import (
    HostModel,
    ThroughputResult,
    ThroughputSetup,
    measure_ips,
    sweep_agents,
)

__all__ = [
    "HostModel",
    "IPSMeter",
    "ThroughputResult",
    "ThroughputSetup",
    "ips_definition_check",
    "measure_ips",
    "sweep_agents",
]
