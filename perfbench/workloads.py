"""The benchmark's workloads, their output checks and their metrics.

All three run single-threaded and drive only public entry points
(``A3CTrainer``, ``PAACTrainer``, ``BatchedVectorEnv``,
``make_atari_env`` and ``repro.platforms.ThroughputSetup``), with
telemetry (``REPRO_OBS``) off.

* ``a3c-scalar``: ``A3CTrainer`` in ``actors="serial"`` mode with 4
  agents, each on a scalar ``make_atari_env(breakout)``.  Inference runs
  at batch 1, and θ is synced and RMSProp applied once every ≤5 steps.
  Chosen because batch-1 ``repro.nn`` calls, the scalar wrapper chain in
  ``repro.envs``/``repro.ale``, and per-routine parameter-server reads
  and writes dominate it.
* ``paac-batched``: ``PAACTrainer`` on a 16-slot
  ``BatchedVectorEnv(breakout)``: inference at batch 16, training at
  batch 80, one parameter write per 80 steps.  Chosen because it runs the
  same ``repro.nn`` and ``repro.core`` code at large batch: the conv
  GEMMs, ``col2im`` and the ``repro.ale.vec`` engine dominate it, and
  there is almost no parameter-server traffic.
* ``sim-matrix``: every scenario of ``repro.obs.prof.baseline.SCENARIOS``
  through ``ThroughputSetup.measure`` with plans warm.  Chosen because it
  exercises ``repro.sim``, ``repro.fpga``, ``repro.perf`` and
  ``repro.gpu`` and never touches ``repro.nn`` or ``repro.envs``.  The
  training workloads never build a platform, because backend resolution
  is lazy, so each side is the other's no-change control.

Both training workloads are deterministic under the seed: a run does a
fixed number of steps, so the digest of the final θ repeats exactly and
a change to the fp32 arithmetic shows up in it.

Every time reported is host time on the calibrated clock of
:mod:`perfbench.gauge`; the wall-clock figures are printed beside them.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import resource
import statistics
import time
import typing

import numpy as np

from repro.ale import make_game
from repro.ale.games.base import AtariGame
from repro.ale.vec.base import VecAtariGame
from repro.core import A3CConfig, A3CTrainer, PAACTrainer, ParameterServer
from repro.core import Rollout
from repro.core.execution import apply_rollout_update
from repro.envs import BatchedVectorEnv, make_atari_env
from repro.nn.layers import Conv2D, Dense
from repro.nn.network import A3CNetwork
from repro.nn.optim import SharedRMSProp
from repro.obs.prof.baseline import SCENARIOS
from repro.perf.stageplan import CACHE
from repro.platforms import ThroughputSetup

from perfbench.gauge import Gauge
from perfbench.trace import Patcher, Tracer

GAME = "breakout"
T_MAX = 5
A3C_AGENTS = 4
PAAC_SLOTS = 16
#: The paper's 100M-step learning-rate horizon, fixed so that the rate a
#: step sees does not depend on the run's step budget.
ANNEAL_STEPS = 100_000_000
#: Routine-time samples a timed window holds at least, so that p90 has
#: ten samples beyond it.
MIN_ROUTINES = 100
#: Setups per run; ``setup_s`` is their median.
SETUP_REPEATS = 7
SIM_SETUP_REPEATS = 5
#: Calibrated seconds one pass over the scenario matrix takes; sizes the
#: pass count from ``--seconds``.
SIM_PASS_SECONDS = 0.36

NETWORK_LAYERS = ("Conv1", "Conv2", "FC3", "FC4")
#: Attributing spans of the training trace: they split the timed window
#: into disjoint parts (see perfbench.trace).  Nested detail spans are
#: ale.step, nn.rmsprop and nn.<layer>.{fw,bw,gc}.
PARTS = ("envs.step", "envs.reset", "nn.infer", "nn.train", "core.ps.sync",
         "core.ps.apply", "core.rollout.batch")

END_TO_END_UNITS = {
    "steps_per_s": "1/s",
    "routines_per_s": "1/s",
    "routine_ms_p50": "ms",
    "routine_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> typing.Dict[str, str]:
    """Every per-layer metric name with its unit, in print order."""
    units = {
        "trace.window_s": "s",
        "trace.steps_per_s": "1/s",
        "trace.overhead_frac": "frac",
        "envs.step.calls": "count",
        "envs.step.busy_s": "s",
        "envs.reset.busy_s": "s",
        "ale.step.busy_s": "s",
        "nn.infer.calls": "count",
        "nn.infer.busy_s": "s",
        "nn.infer.batch_mean": "rows",
        "nn.train.busy_s": "s",
        "nn.train.batch_mean": "rows",
    }
    for layer in NETWORK_LAYERS:
        for stage in ("fw", "bw", "gc"):
            units[f"nn.{layer}.{stage}_s"] = "s"
    units.update({
        "nn.rmsprop.busy_s": "s",
        "core.ps.sync.calls": "count",
        "core.ps.sync.busy_s": "s",
        "core.ps.apply.calls": "count",
        "core.ps.apply.busy_s": "s",
        "core.rollout.batch_s": "s",
        "core.other_s": "s",
    })
    for part in PARTS + ("core.other",):
        units[f"{part}.share"] = "frac"
    units.update({
        "sim.events": "count",
        "sim.host_ns_per_event": "ns",
    })
    for scenario in SCENARIOS:
        units[f"sim.{scenario.name}.host_ms"] = "ms"
    units.update({
        "perf.plan_cache.hits": "count",
        "perf.plan_cache.misses": "count",
        "platforms.build_sim_s": "s",
    })
    return units


@dataclasses.dataclass
class Outcome:
    """One run's metrics, its checked operations and recorded outputs."""

    metrics: typing.Dict[str, float] = dataclasses.field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Outputs that are not metrics (θ digests, sample counts).
    recorded: typing.Dict[str, object] = dataclasses.field(
        default_factory=dict)

    def check(self, ok: bool) -> None:
        """Count one checked operation; a false ``ok`` is a failure."""
        self.attempted += 1
        if not ok:
            self.failed += 1


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(samples: typing.Sequence[float], q: int) -> float:
    """The ``q``-th percentile, as ``statistics.quantiles`` cuts it."""
    if len(samples) < 2:
        return float(samples[0]) if samples else 0.0
    return statistics.quantiles(samples, n=100)[q - 1]


def theta_digest(params) -> str:
    """SHA-256 over θ's names and fp32 bytes, in name order."""
    digest = hashlib.sha256()
    for name in sorted(params.names()):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(params[name]).tobytes())
    return digest.hexdigest()[:16]


def theta_finite(params) -> bool:
    return all(bool(np.isfinite(params[name]).all())
               for name in params.names())


def loss_finite(loss) -> bool:
    return all(math.isfinite(value) for value in
               (loss.policy_loss, loss.value_loss, loss.entropy))


def _timed_setup(gauge: Gauge, build: typing.Callable[[], object]
                 ) -> typing.Tuple[object, float]:
    """``build()`` between two gauge samples; returns its result and the
    calibrated seconds it took."""
    gauge.sample()
    started = time.perf_counter_ns()
    built = build()
    ended = time.perf_counter_ns()
    gauge.sample()
    return built, gauge.seconds(started, ended)


def _trace_summary(plain_steps_per_s: float, window_s: float,
                   traced_steps_per_s: float) -> typing.Dict[str, float]:
    return {
        "trace.window_s": window_s,
        "trace.steps_per_s": traced_steps_per_s,
        "trace.overhead_frac": 1.0 - traced_steps_per_s / plain_steps_per_s,
    }


# -- training workloads ----------------------------------------------------


@dataclasses.dataclass(frozen=True)
class TrainingWorkload:
    """How to build, warm up and train one trainer."""

    name: str
    build: typing.Callable[[int], object]
    #: Steps of one round of routines: every agent once (A3C) or one
    #: synchronous update (PAAC).  Warm-up is one round.
    round_steps: int
    #: Most steps one routine can take.
    routine_steps: int
    #: Calibrated steps per second; sizes the budget.
    nominal_steps_per_s: float

    def train(self, trainer, target_steps: int):
        if isinstance(trainer, A3CTrainer):
            return trainer.train(max_steps=target_steps, actors="serial")
        return trainer.train(max_steps=target_steps)

    def budget_steps(self, seconds: float) -> int:
        """Steps of one run: about ``seconds`` of work, at least
        :data:`MIN_ROUTINES` routines, and an even number of rounds so a
        traced run can split it into two equal windows."""
        steps = max(seconds * self.nominal_steps_per_s,
                    MIN_ROUTINES * self.routine_steps)
        unit = 2 * self.round_steps
        return int(math.ceil(steps / unit)) * unit

    def setup(self, seed: int, gauge: Gauge) -> typing.Tuple[object, float]:
        """Construct and warm up a trainer; returns it and the calibrated
        seconds taken up to the first timed step."""
        def build():
            trainer = self.build(seed)
            self.train(trainer, self.round_steps)
            return trainer
        return _timed_setup(gauge, build)


def _config(seed: int, agents: int) -> A3CConfig:
    return A3CConfig(num_agents=agents, t_max=T_MAX, seed=seed,
                     anneal_steps=ANNEAL_STEPS)


def _num_actions() -> int:
    return make_game(GAME).action_space.n


def build_a3c(seed: int) -> A3CTrainer:
    actions = _num_actions()
    return A3CTrainer(lambda agent_id: make_atari_env(make_game(GAME)),
                      lambda: A3CNetwork(actions),
                      _config(seed, A3C_AGENTS))


def build_paac(seed: int) -> PAACTrainer:
    actions = _num_actions()
    config = _config(seed, PAAC_SLOTS)
    env = BatchedVectorEnv(GAME, num_envs=PAAC_SLOTS, seed=seed)
    return PAACTrainer(None, lambda: A3CNetwork(actions), config,
                       vector_env=env)


A3C_SCALAR = TrainingWorkload("a3c-scalar", build_a3c,
                              round_steps=A3C_AGENTS * T_MAX,
                              routine_steps=T_MAX,
                              nominal_steps_per_s=200.0)
PAAC_BATCHED = TrainingWorkload("paac-batched", build_paac,
                                round_steps=PAAC_SLOTS * T_MAX,
                                routine_steps=PAAC_SLOTS * T_MAX,
                                nominal_steps_per_s=360.0)


@dataclasses.dataclass
class Window:
    """One timed training window."""

    steps: int
    #: Calibrated seconds, and wall seconds without the gauge's samples.
    seconds: float
    wall_seconds: float
    routine_ms: typing.List[float]
    #: Per routine: were its losses finite?
    losses_ok: typing.List[bool]
    final_ok: bool
    digest: str

    @property
    def steps_per_s(self) -> float:
        return self.steps / self.seconds


def _record_updates(updates: list):
    """Wrapper for ``apply_rollout_update``: one update ends each
    routine, so it records the loss and the time the routine ended."""
    def make(func):
        @functools.wraps(func)
        def recorded(*args, **kwargs):
            loss = func(*args, **kwargs)
            updates.append((time.perf_counter_ns(), loss))
            return loss
        return recorded
    return make


def _envs(trainer) -> list:
    """The outermost environment objects the trainer steps."""
    if isinstance(trainer, A3CTrainer):
        return [agent.env for agent in trainer.agents]
    return [trainer.vector_env]


def install_training_trace(patcher: Patcher, tracer: Tracer,
                           trainer) -> None:
    """Wrap each layer's public functions for one traced window."""
    for env in _envs(trainer):
        # The outermost env only: inner wrappers are preprocessing.
        patcher.wrap(env, "step", tracer.wrapper("envs.step",
                                                 attributing=True))
        patcher.wrap(env, "reset", tracer.wrapper("envs.reset",
                                                  attributing=True))
    for game_class in (AtariGame, VecAtariGame):
        patcher.wrap(game_class, "step", tracer.wrapper("ale.step"))
    patcher.wrap(A3CNetwork, "forward",
                 tracer.wrapper("nn.infer", attributing=True,
                                top_level_only=True, batch_arg=1))
    patcher.wrap_function(apply_rollout_update,
                          tracer.wrapper("nn.train", attributing=True,
                                         batch_arg=3))
    for layer_class in (Conv2D, Dense):
        for attr, stage in (("forward", "fw"), ("backward_input", "bw"),
                            ("grad_params", "gc")):
            patcher.wrap(layer_class, attr, tracer.wrapper(
                lambda layer, *_, stage=stage: f"nn.{layer.name}.{stage}"))
    patcher.wrap(SharedRMSProp, "step", tracer.wrapper("nn.rmsprop"))
    patcher.wrap(ParameterServer, "snapshot_into",
                 tracer.wrapper("core.ps.sync", attributing=True))
    patcher.wrap(ParameterServer, "apply_gradients",
                 tracer.wrapper("core.ps.apply", attributing=True))
    patcher.wrap(Rollout, "batch",
                 tracer.wrapper("core.rollout.batch", attributing=True))


def run_window(workload: TrainingWorkload, trainer, steps: int,
               gauge: Gauge, tracer: typing.Optional[Tracer] = None
               ) -> Window:
    """Train ``steps`` more steps in one timed call, checking outputs."""
    updates: list = []
    start_step = trainer.server.global_step
    target = start_step + steps
    with Patcher() as patcher:
        patcher.wrap_function(apply_rollout_update, _record_updates(updates))
        if tracer is not None:
            install_training_trace(patcher, tracer, trainer)
        # Outermost, so that no gauge sample runs inside a traced span.
        patcher.wrap_function(apply_rollout_update, gauge.hook)
        for env in _envs(trainer):
            patcher.wrap(env, "step", gauge.hook)
        gauge.sample()
        started = time.perf_counter_ns()
        if tracer is not None:
            tracer.open(started)
        result = workload.train(trainer, target)
        ended = time.perf_counter_ns()
        probe_ns = gauge.probe_ns(started, ended)
        if tracer is not None:
            tracer.close(ended, excluded_ns=probe_ns)
        gauge.sample()
    stamps = gauge.calibrate([started] + [end for end, _loss in updates]
                             + [ended])
    return Window(
        steps=result.global_steps - start_step,
        seconds=float(stamps[-1] - stamps[0]),
        wall_seconds=(ended - started - probe_ns) / 1e9,
        routine_ms=list(np.diff(stamps[:-1]) * 1e3),
        losses_ok=[loss_finite(loss) for _end, loss in updates],
        final_ok=(result.global_steps >= target
                  and theta_finite(result.params)),
        digest=theta_digest(result.params))


def _check_window(outcome: Outcome, window: Window) -> None:
    """Every routine's losses, then the final θ and step count."""
    for ok in window.losses_ok:
        outcome.check(ok)
    outcome.check(window.final_ok)


def run_training(workload: TrainingWorkload, seed: int, steps: int,
                 traced: bool) -> Outcome:
    """One run: end-to-end metrics, or (``traced``) per-layer metrics.

    A traced run trains two fresh trainers for ``steps / 2`` each, the
    first untraced and the second traced; their θ digests must match.
    """
    outcome = Outcome()
    gauge = Gauge()
    if not traced:
        setup_seconds = []
        for _ in range(SETUP_REPEATS):
            trainer, seconds = workload.setup(seed, gauge)
            setup_seconds.append(seconds)
        window = run_window(workload, trainer, steps, gauge)
        _check_window(outcome, window)
        outcome.metrics.update({
            "steps_per_s": window.steps_per_s,
            "routines_per_s": len(window.routine_ms) / window.seconds,
            "routine_ms_p50": statistics.median(window.routine_ms),
            "routine_ms_p90": percentile(window.routine_ms, 90),
            "setup_s": statistics.median(setup_seconds),
            "peak_rss_mb": peak_rss_mb(),
        })
        outcome.recorded.update({
            "theta_digest": window.digest,
            "steps": window.steps,
            "routines": len(window.routine_ms),
            "wall_steps_per_s": round(window.steps / window.wall_seconds, 3),
        })
        return outcome

    half = steps // 2
    plain = run_window(workload, workload.setup(seed, gauge)[0], half, gauge)
    tracer = Tracer()
    traced_window = run_window(workload, workload.setup(seed, gauge)[0],
                               half, gauge, tracer)
    for window in (plain, traced_window):
        _check_window(outcome, window)
    # Tracing must not change the arithmetic.
    outcome.check(plain.digest == traced_window.digest)
    # Busy times are scaled to the calibrated clock with the window's
    # own factor; shares and the decomposition are on raw nanoseconds.
    scale = traced_window.seconds / traced_window.wall_seconds
    metrics = dict.fromkeys(per_layer_units(), 0.0)
    metrics.update(_trace_summary(plain.steps_per_s, traced_window.seconds,
                                  traced_window.steps_per_s))
    for name in ("envs.step", "nn.infer", "core.ps.sync", "core.ps.apply"):
        metrics[f"{name}.calls"] = tracer.calls[name]
    for name in ("envs.step", "envs.reset", "ale.step", "nn.infer",
                 "nn.train", "nn.rmsprop", "core.ps.sync", "core.ps.apply"):
        metrics[f"{name}.busy_s"] = tracer.busy_s(name) * scale
    for name in ("nn.infer", "nn.train"):
        metrics[f"{name}.batch_mean"] = tracer.batch_mean(name)
    for layer in NETWORK_LAYERS:
        for stage in ("fw", "bw", "gc"):
            metrics[f"nn.{layer}.{stage}_s"] = \
                tracer.busy_s(f"nn.{layer}.{stage}") * scale
    metrics["core.rollout.batch_s"] = \
        tracer.busy_s("core.rollout.batch") * scale
    metrics["core.other_s"] = tracer.other_ns / 1e9 * scale
    for part in PARTS:
        metrics[f"{part}.share"] = tracer.share(part)
    metrics["core.other.share"] = tracer.other_ns / tracer.window_ns
    outcome.metrics = metrics
    outcome.recorded.update({
        "theta_digest": traced_window.digest,
        "steps": traced_window.steps,
        "decomposition": "layer busy times + core.other_s == window "
                         f"({tracer.window_ns} ns)",
    })
    return outcome


# -- simulator workload ----------------------------------------------------


def load_expected_ips(path) -> typing.Dict[str, float]:
    """Committed modelled IPS per scenario from ``BENCH_fa3c.json``."""
    with open(path, "r", encoding="utf-8") as handle:
        snapshot = json.load(handle)
    return {name: float(entry["ips"])
            for name, entry in snapshot["scenarios"].items()}


def sim_passes(seconds: float) -> int:
    """Passes over the matrix in one run: about ``seconds`` of work, at
    least :data:`MIN_ROUTINES` (a pass is one routine-time sample), and an
    even number so a traced run can split it into two windows."""
    passes = max(seconds / SIM_PASS_SECONDS, MIN_ROUTINES)
    return 2 * int(math.ceil(passes / 2))


def sim_setup(gauge: Gauge
              ) -> typing.Tuple[typing.Dict[str, ThroughputSetup], float]:
    """Build every scenario and run one warm-up pass from an empty
    stage-plan cache; returns the setups and the calibrated seconds."""
    def build():
        CACHE.clear()
        setups = {}
        for scenario in SCENARIOS:
            setup = ThroughputSetup(scenario.build(), scenario.build_host())
            _measure(setup, scenario)
            setups[scenario.name] = setup
        return setups
    return _timed_setup(gauge, build)


def _measure(setup: ThroughputSetup, scenario):
    return setup.measure(scenario.num_agents, t_max=scenario.t_max,
                         routines_per_agent=scenario.routines)


@dataclasses.dataclass
class SimWindow:
    """One timed pass sequence over the scenario matrix."""

    seconds: float
    routines: int
    steps: int
    #: Host ms per simulated routine, one sample per pass: the scenarios
    #: differ twentyfold in cost, so a per-run sample would put p50 on
    #: whichever scenario sits at the median.
    routine_ms: typing.List[float]
    #: Host ms of each run, per scenario.
    scenario_ms: typing.Dict[str, typing.List[float]]
    wall_seconds: float

    @property
    def steps_per_s(self) -> float:
        return self.steps / self.seconds


def run_sim_window(setups: typing.Mapping[str, ThroughputSetup],
                   passes: int, rng: np.random.Generator,
                   expected_ips: typing.Mapping[str, float],
                   outcome: Outcome, gauge: Gauge,
                   on_measured: typing.Callable[[], None] = lambda: None
                   ) -> SimWindow:
    """Run every scenario ``passes`` times in seeded order.  Each run's
    modelled IPS, rounded as the snapshot rounds it, must equal the
    committed value exactly."""
    by_name = {scenario.name: scenario for scenario in SCENARIOS}
    names = sorted(setups)
    runs = []
    gauge.sample()
    started = time.perf_counter_ns()
    for _ in range(passes):
        for index in rng.permutation(len(names)):
            scenario = by_name[names[index]]
            run_started = time.perf_counter_ns()
            result = _measure(setups[scenario.name], scenario)
            runs.append((scenario, run_started, time.perf_counter_ns()))
            on_measured()
            gauge.tick()
            outcome.check(round(result.ips, 3) ==
                          expected_ips.get(scenario.name))
    ended = time.perf_counter_ns()
    gauge.sample()
    stamps = gauge.calibrate([started, ended] + [stamp for _s, *pair in runs
                                                 for stamp in pair])
    window = SimWindow(float(stamps[1] - stamps[0]), 0, 0, [],
                       {name: [] for name in names},
                       (ended - started - gauge.probe_ns(started, ended))
                       / 1e9)
    pass_ms = pass_routines = 0
    for count, ((scenario, _start, _end), run_started, run_ended) in \
            enumerate(zip(runs, stamps[2::2], stamps[3::2]), start=1):
        run_ms = (run_ended - run_started) * 1e3
        routines = scenario.num_agents * scenario.routines
        window.routines += routines
        window.steps += routines * scenario.t_max
        window.scenario_ms[scenario.name].append(run_ms)
        pass_ms += run_ms
        pass_routines += routines
        if count % len(names) == 0:
            window.routine_ms.append(pass_ms / pass_routines)
            pass_ms = pass_routines = 0
    return window


def run_sim_matrix(seed: int, passes: int, traced: bool,
                   expected_ips: typing.Mapping[str, float]) -> Outcome:
    """One sim-matrix run: end-to-end metrics, or (``traced``) an
    untraced and a traced window of ``passes / 2`` each."""
    outcome = Outcome()
    rng = np.random.default_rng(seed)
    gauge = Gauge()
    setup_seconds = []
    for _ in range(SIM_SETUP_REPEATS):
        setups, seconds = sim_setup(gauge)
        setup_seconds.append(seconds)
    if not traced:
        window = run_sim_window(setups, passes, rng, expected_ips, outcome,
                                gauge)
        outcome.metrics.update({
            "steps_per_s": window.steps_per_s,
            "routines_per_s": window.routines / window.seconds,
            "routine_ms_p50": statistics.median(window.routine_ms),
            "routine_ms_p90": percentile(window.routine_ms, 90),
            "setup_s": statistics.median(setup_seconds),
            "peak_rss_mb": peak_rss_mb(),
        })
        outcome.recorded.update({
            "passes": len(window.routine_ms),
            "wall_routines_per_s": round(
                window.routines / window.wall_seconds, 3),
        })
        return outcome

    half = max(1, passes // 2)
    plain = run_sim_window(setups, half, rng, expected_ips, outcome, gauge)
    engines: list = []
    build_ns = [0]

    def capture_engine(build_sim):
        def traced_build(engine, *args, **kwargs):
            started = time.perf_counter_ns()
            try:
                return build_sim(engine, *args, **kwargs)
            finally:
                build_ns[0] += time.perf_counter_ns() - started
                engines.append(engine)
        return traced_build

    events = [0]

    def count_events():
        # Every scheduled entry takes one sequence number.
        events[0] += engines.pop()._sequence

    hits, misses = CACHE.hits, CACHE.misses
    with Patcher() as patcher:
        for setup in setups.values():
            patcher.wrap(setup.platform, "build_sim", capture_engine)
        traced_window = run_sim_window(setups, half, rng, expected_ips,
                                       outcome, gauge,
                                       on_measured=count_events)
    scale = traced_window.seconds / traced_window.wall_seconds
    metrics = dict.fromkeys(per_layer_units(), 0.0)
    metrics.update(_trace_summary(plain.steps_per_s, traced_window.seconds,
                                  traced_window.steps_per_s))
    measured_ns = sum(sum(runs) for runs
                      in traced_window.scenario_ms.values()) * 1e6
    metrics.update({
        "sim.events": events[0],
        "sim.host_ns_per_event": measured_ns / events[0],
        "perf.plan_cache.hits": CACHE.hits - hits,
        "perf.plan_cache.misses": CACHE.misses - misses,
        "platforms.build_sim_s": build_ns[0] / 1e9 * scale,
    })
    for name, runs in traced_window.scenario_ms.items():
        metrics[f"sim.{name}.host_ms"] = statistics.median(runs)
    outcome.metrics = metrics
    outcome.recorded["passes"] = len(traced_window.routine_ms)
    return outcome


WORKLOADS = ("a3c-scalar", "paac-batched", "sim-matrix")


def run(workload: str, seed: int, seconds: float, traced: bool,
        expected_ips: typing.Mapping[str, float]) -> Outcome:
    """Run one named workload sized for ``seconds`` of work."""
    if workload == "sim-matrix":
        return run_sim_matrix(seed, sim_passes(seconds), traced,
                              expected_ips)
    training = {"a3c-scalar": A3C_SCALAR,
                "paac-batched": PAAC_BATCHED}[workload]
    return run_training(training, seed, training.budget_steps(seconds),
                        traced)
