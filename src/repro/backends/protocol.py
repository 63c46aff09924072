"""The execution-backend protocol.

A *backend* is the uniform handle trainers, the CLI, and the bench
harness hold on one execution platform — the FA3C FPGA model or one of
the four software baselines (paper Section 5.1).  It exposes:

* :class:`BackendCapabilities` — what the platform can do (does it keep
  per-agent local parameters and therefore sync/bootstrap, does it batch
  inference across agents, can its sim record a stage trace);
* stage-plan compilation (:meth:`Backend.compile_plans`) — warms the
  platform's memoized plan/task caches so later measurements replay
  instead of re-deriving;
* analytic, uncontended step latencies (:meth:`Backend.infer_step`,
  :meth:`Backend.train_step`, :meth:`Backend.sync_step`) and their
  cause-bucket attribution (:meth:`Backend.attribution`);
* a discrete-event simulation instance (:meth:`Backend.build_sim`) with
  the duck-typed surface :mod:`repro.platforms.throughput` drives
  (``agent_chain``, which starts one agent's routines as a callback
  chain, and ``utilisation``);
* the deterministic seeding contract (:func:`derive_agent_seed`).

The analytic queries are *side-effect free*: they never record metrics,
even while :mod:`repro.obs` collection is on (the simulated task
executions are what record).  Conformance is asserted for every
registered backend by ``tests/test_backends_conformance.py``.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.obs import runtime as _obs
from repro.perf.hotpath import hot_path

if typing.TYPE_CHECKING:                     # pragma: no cover
    from repro.obs.tracer import SpanTracer
    from repro.sim import Engine

#: Multiplier of the per-agent seed derivation.  Prime and larger than
#: any realistic agent count, so per-agent environment seed streams
#: never collide across base seeds.
AGENT_SEED_STRIDE = 1009


@hot_path
def derive_agent_seed(seed: int, agent_id: int) -> int:
    """The repo-wide deterministic seeding contract.

    Every trainer seeds agent ``agent_id``'s environment with this value
    so runs are reproducible given ``config.seed`` alone, and so the
    same (seed, agent) pair sees the same episode stream on every
    backend and actor execution mode.
    """
    return seed * AGENT_SEED_STRIDE + agent_id


#: Multiplier of the per-episode evaluation seed derivation.  A larger
#: prime than :data:`AGENT_SEED_STRIDE` so evaluation episode streams
#: never alias the training agents' environment streams.
EVAL_SEED_STRIDE = 7919


def derive_policy_seed(seed: int, agent_id: int) -> int:
    """Per-agent *policy sampling* seed: ``seed + agent_id``.

    Agents draw their action-sampling RNG from this stream.  It is
    deliberately distinct from :func:`derive_agent_seed` (which seeds
    the agent's *environment*): the offset form has been the policy
    stream's identity since the first trainer and is kept bit-exact so
    recorded runs and the bench baselines replay unchanged.
    """
    return seed + agent_id


def derive_eval_seed(seed: int, episode: int) -> int:
    """Per-episode *evaluation* seed: ``seed * EVAL_SEED_STRIDE +
    episode``.

    Greedy-evaluation episodes each get their own environment stream so
    scores are independent of evaluation order and batch size.
    """
    return seed * EVAL_SEED_STRIDE + episode


@dataclasses.dataclass(frozen=True)
class BackendCapabilities:
    """What one execution platform supports.

    ``needs_sync`` / ``needs_bootstrap`` mirror the per-agent-local-θ
    structure: GA3C keeps a single global model, so agents neither sync
    parameters nor run their own bootstrap inference (the predictor
    batches it).  ``supports_tracing`` marks sims whose ``build_sim``
    accepts a :class:`~repro.obs.SpanTracer` for per-CU stage Gantt charts.
    ``precision`` is the operand storage format of the datapath (a
    :mod:`repro.precision` name); the registry validates it at create
    time, so an unregistered or misspelt precision fails on ``create``
    rather than deep inside a timing query.
    """

    kind: str                        # "fpga" | "gpu" | "host"
    needs_sync: bool = True
    needs_bootstrap: bool = True
    batched_inference: bool = False  # requests batched across agents
    supports_tracing: bool = False
    precision: str = "fp32"          # repro.precision name


@typing.runtime_checkable
class Backend(typing.Protocol):
    """Structural protocol every registered backend satisfies."""

    registry_name: str
    capabilities: BackendCapabilities

    @property
    def name(self) -> str:
        """Display name used in figures/tables (e.g. ``"A3C-cuDNN"``)."""

    @property
    def needs_sync(self) -> bool: ...

    @property
    def needs_bootstrap(self) -> bool: ...

    def compile_plans(self, t_max: int = 5) -> int: ...

    def infer_step(self, batch: int = 1) -> float: ...

    def train_step(self, batch: int) -> float: ...

    def sync_step(self) -> float: ...

    def attribution(self, task: str, batch: int = 0
                    ) -> typing.Dict[str, float]: ...

    def build_sim(self, engine: "Engine",
                  tracer: typing.Optional["SpanTracer"] = None): ...

    def agent_seed(self, agent_id: int, seed: int) -> int: ...


class PlatformBackend:
    """Concrete adapter base: a backend wrapping one platform object.

    Subclasses (:class:`~repro.backends.fpga.FPGABackend`,
    :class:`~repro.backends.gpu.GPUBackend`) supply the capability
    flags and the platform-specific plan compilation / latency /
    attribution dispatch; everything surface-level — display name,
    sync/bootstrap flags, seeding — is shared here.

    The adapter deliberately keeps the wrapped platform public
    (``backend.platform``) so analysis code that needs model-specific
    detail (resource tables, calibration constants) can reach it without
    widening the protocol.
    """

    def __init__(self, registry_name: str, platform,
                 capabilities: BackendCapabilities):
        self.registry_name = registry_name
        self.platform = platform
        self.capabilities = capabilities

    @property
    def name(self) -> str:
        # FPGA platforms carry the display name on their config; the
        # GPU baselines as a class attribute.  Same resolution order as
        # ThroughputSetup, so series keys and power tables are stable.
        platform = self.platform
        return getattr(platform, "name", None) or platform.config.name

    @property
    def needs_sync(self) -> bool:
        return self.capabilities.needs_sync

    @property
    def needs_bootstrap(self) -> bool:
        return self.capabilities.needs_bootstrap

    @property
    def topology(self):
        return self.platform.topology

    def agent_seed(self, agent_id: int, seed: int) -> int:
        """Environment seed for ``agent_id`` under base ``seed``."""
        return derive_agent_seed(seed, agent_id)

    def build_sim(self, engine: "Engine",
                  tracer: typing.Optional["SpanTracer"] = None):
        """A fresh discrete-event sim instance on ``engine``."""
        if tracer is not None and not self.capabilities.supports_tracing:
            raise ValueError(
                f"backend {self.registry_name!r} does not support stage "
                f"tracing (capabilities.supports_tracing is False)")
        return self._build_sim(engine, tracer)

    def _build_sim(self, engine: "Engine", tracer):
        raise NotImplementedError

    def compile_plans(self, t_max: int = 5) -> int:
        """Warm the platform's memoized plans for one A3C routine shape
        (inference at batch 1, training at batch ``t_max``, sync).

        Side-effect free with respect to :mod:`repro.obs`: collection is
        suspended while plans build, exactly as the sims do on a cache
        miss.  Returns the number of task plans compiled.
        """
        observing = _obs.enabled()
        if observing:
            _obs.disable()
        try:
            return self._compile_plans(t_max)
        finally:
            if observing:
                _obs.enable()

    def _compile_plans(self, t_max: int) -> int:
        raise NotImplementedError

    def _quiet(self, build: typing.Callable[[], typing.Any]):
        """Run an analytic query with obs collection suspended, so
        latency/attribution questions never pollute the metrics a
        simulated run collects."""
        observing = _obs.enabled()
        if observing:
            _obs.disable()
        try:
            return build()
        finally:
            if observing:
                _obs.enable()

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} {self.registry_name!r} "
                f"({self.name})>")
