"""The multi-agent throughput experiment (Figures 8 and 10).

Runs ``n`` simulated A3C agents against a platform's discrete-event
instance.  Each agent executes the Figure 2 routine as a callback chain
(:mod:`repro.platforms.chain`): parameter sync, t_max environment-step +
inference pairs, a bootstrapping inference, host-side objective-gradient
computation, and a training task.  Contention — agents queueing on CUs,
DRAM channels, the GPU, or the predictor queue — is what shapes the
IPS-vs-agents curves.
"""

from __future__ import annotations

import dataclasses
import typing

import numpy as np

from repro.gpu.calibration import GPUCalibration
from repro.obs import runtime as _obs
from repro.platforms.metrics import IPSMeter
from repro.sim import Engine


@dataclasses.dataclass
class HostModel:
    """Host-side (CPU) time per agent between accelerator tasks."""

    step_time: float = GPUCalibration.host_step_time
    """Environment frame(s) + preprocessing + softmax/action sampling."""
    train_prep_time: float = GPUCalibration.host_train_prep_time
    """Objective-function and head-gradient computation (Section 4.1)."""

    @classmethod
    def dummy(cls) -> "HostModel":
        """The Section 5.3 dummy platform: environment only, no DNN."""
        return cls(train_prep_time=0.0)

    @classmethod
    def batched(cls, frames_per_second: typing.Optional[float] = None,
                frame_skip: int = 4) -> "HostModel":
        """Host model when a SoA batched engine feeds the agents.

        With ``repro.ale.vec`` one vector step advances every slot
        ``frame_skip`` frames at the engine's aggregate frame rate, so
        the per-agent host time between inference requests amortises to
        ``frame_skip / frames_per_second``.  This is the occupancy-curve
        input to the GPU cost model: a cheaper host step pushes the
        accelerator into its contention-limited region at lower agent
        counts.  ``frames_per_second`` must be a fixed calibration
        figure (default :attr:`GPUCalibration.batched_env_fps`), never a
        live measurement — modelled numbers stay deterministic.
        """
        if frames_per_second is None:
            frames_per_second = GPUCalibration.batched_env_fps
        if frames_per_second <= 0 or frame_skip <= 0:
            raise ValueError(
                "frames_per_second and frame_skip must be positive, "
                f"got {frames_per_second!r} / {frame_skip!r}")
        return cls(step_time=frame_skip / frames_per_second)


@dataclasses.dataclass
class ThroughputResult:
    """Outcome of one throughput measurement."""

    platform: str
    num_agents: int
    t_max: int
    ips: float
    routines: int
    sim_seconds: float
    utilisation: float = 0.0
    inference_latencies: typing.Tuple[float, ...] = ()
    """Per-request inference latencies (queueing + service) observed
    after warm-up — the responsiveness side of the throughput story."""

    @property
    def routines_per_second(self) -> float:
        return self.ips / self.t_max

    def latency_percentile(self, percentile: float) -> float:
        """Inference-latency percentile in seconds (nan if untracked)."""
        if not self.inference_latencies:
            return float("nan")
        return float(np.percentile(self.inference_latencies, percentile))


class ThroughputSetup:
    """Per-platform measurement state shared across sweep points.

    The simulated clock, resource statistics, and event queue are
    cumulative, so a fresh :class:`Engine` (and sim instance) is required
    per measurement — reusing one would change the modelled numbers.
    Everything derived purely from the *platform* is shared here instead:
    the platform name, the host model, and (implicitly) the platform's
    memoized stage/task plans — the first measurement warms the
    :mod:`repro.perf.stageplan` cache and every later sweep point replays
    the same plans instead of re-deriving them per agent count.
    """

    def __init__(self, platform,
                 host: typing.Optional[HostModel] = None):
        self.platform = platform
        self.host = host or HostModel()
        self.name = getattr(platform, "name", None) \
            or platform.config.name
        self.needs_sync = getattr(platform, "needs_sync", True)
        self.needs_bootstrap = getattr(platform, "needs_bootstrap", True)

    def measure(self, num_agents: int, t_max: int = 5,
                routines_per_agent: int = 40) -> ThroughputResult:
        """One measurement at ``num_agents`` on a fresh engine.

        ``num_agents`` may be 0 (an empty measurement); ``t_max`` and
        ``routines_per_agent`` must be at least 1, because an agent
        chain always runs at least one whole routine."""
        for name, value, low in (("num_agents", num_agents, 0),
                                 ("t_max", t_max, 1),
                                 ("routines_per_agent",
                                  routines_per_agent, 1)):
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value!r}")
        engine = Engine()
        sim = self.platform.build_sim(engine)
        meter = IPSMeter(t_max)
        latencies: typing.List[float] = []
        agents = [sim.agent_chain(agent_id, t_max, routines_per_agent,
                                  self.host, meter, self.needs_sync,
                                  self.needs_bootstrap, latencies)
                  for agent_id in range(num_agents)]
        engine.run(engine.all_of(agents))
        result = ThroughputResult(platform=self.name,
                                  num_agents=num_agents,
                                  t_max=t_max, ips=meter.ips(),
                                  routines=num_agents
                                  * routines_per_agent,
                                  sim_seconds=engine.now,
                                  utilisation=sim.utilisation(),
                                  inference_latencies=tuple(latencies))
        if _obs.enabled():
            _record_throughput(sim, result)
        return result


def measure_ips(platform, num_agents: int, t_max: int = 5,
                routines_per_agent: int = 40,
                host: typing.Optional[HostModel] = None
                ) -> ThroughputResult:
    """Simulate ``num_agents`` agents and return steady-state IPS.

    ``platform`` is any object with ``build_sim(engine)`` and a ``name``
    (FPGA configurations expose the name via their config).  For sweeps
    over several agent counts, build one :class:`ThroughputSetup` and
    call :meth:`ThroughputSetup.measure` per point instead.
    """
    return ThroughputSetup(platform, host).measure(
        num_agents, t_max=t_max, routines_per_agent=routines_per_agent)


def _record_throughput(sim, result: ThroughputResult) -> None:
    """End-of-run gauges: IPS, sim duration, per-CU busy fraction."""
    metrics = _obs.metrics()
    labels = {"platform": result.platform,
              "agents": str(result.num_agents)}
    metrics.gauge("platform.ips").set(result.ips, **labels)
    metrics.gauge("platform.sim_seconds").set(result.sim_seconds,
                                              **labels)
    cus = []
    for attr in ("infer_cus", "train_cus"):
        cus.extend(getattr(sim, attr, []))
    unique = {id(cu): cu for cu in cus}
    for cu in unique.values():
        metrics.gauge("fpga.cu.utilisation").set(
            cu.utilisation(), cu=cu.name, platform=result.platform)


def sweep_agents(platform, agent_counts: typing.Sequence[int],
                 t_max: int = 5, routines_per_agent: int = 40,
                 host: typing.Optional[HostModel] = None
                 ) -> typing.List[ThroughputResult]:
    """The Figure 8/10 x-axis sweep.

    One :class:`ThroughputSetup` serves every point: the platform's plan
    caches are warmed once instead of rebuilt per agent count.
    """
    setup = ThroughputSetup(platform, host)
    return [setup.measure(n, t_max=t_max,
                          routines_per_agent=routines_per_agent)
            for n in agent_counts]
