"""GA3C baseline (Babaeizadeh et al., ICLR 2017).

GA3C removes the per-agent local θ: *all* inference and training runs
against the single global model, which lets requests from many agents be
batched into large GPU-friendly kernels (paper Section 6).  The cost is
*policy lag*: by the time an agent's rollout trains, the model has moved on
from the one that generated it — which is why the paper notes GA3C "can
lead to unstable or slow learning".

This implementation reproduces the predictor/trainer queue structure
functionally: agents deposit prediction requests and finished rollouts into
queues that are served in batches.
"""

from __future__ import annotations

import collections
import dataclasses
import time
import typing

import numpy as np

from repro.core.config import A3CConfig
from repro.core.execution import (
    apply_rollout_update,
    derive_agent_seed,
    derive_policy_seed,
    record_routine,
    resolve_backend,
)
from repro.core.scores import ScoreTracker
from repro.core.parameter_server import ParameterServer
from repro.core.rollout import Rollout
from repro.core.trainer import TrainResult
from repro.envs.base import Env
from repro.obs import lat as _lat
from repro.obs import runtime as _obs
from repro.nn.losses import softmax
from repro.nn.network import A3CNetwork
from repro.perf.hotpath import hot_path


@dataclasses.dataclass
class _GA3CWorker:
    """Host-side state of one GA3C agent (no local parameters)."""

    env: typing.Optional[Env]
    rng: np.random.Generator
    state: np.ndarray
    rollout: Rollout
    episode_score: float = 0.0
    episodes: int = 0


class GA3CTrainer:
    """Batched single-model A3C (GA3C)."""

    def __init__(self, env_factory: typing.Callable[[int], Env],
                 network_factory: typing.Callable[[], A3CNetwork],
                 config: A3CConfig,
                 prediction_batch: typing.Optional[int] = None,
                 training_batch_rollouts: int = 4,
                 tracker: typing.Optional[ScoreTracker] = None,
                 platform=None,
                 batched_env=None):
        self.config = config
        self.tracker = tracker or ScoreTracker()
        self.prediction_batch = prediction_batch or config.num_agents
        self.training_batch_rollouts = training_batch_rollouts
        self._platform = platform if platform is not None else "ga3c-tf"
        self._lat_platform = (self._platform
                              if isinstance(self._platform, str) else None)
        self._backend = None
        rng = np.random.default_rng(config.seed)
        self.network = network_factory()
        self.server = ParameterServer(self.network.init_params(rng), config)
        self.batched_env = batched_env
        self.workers: typing.List[_GA3CWorker] = []
        if batched_env is not None:
            # All agents share one repro.envs.BatchedVectorEnv stepped as
            # a single batch; the caller seeds it with config.seed so the
            # per-slot contract (derive_agent_seed) holds.
            if batched_env.num_envs != config.num_agents:
                raise ValueError(
                    f"batched_env has {batched_env.num_envs} slots; "
                    f"config.num_agents is {config.num_agents}")
            observations = batched_env.reset()
            for agent_id in range(config.num_agents):
                self.workers.append(_GA3CWorker(
                    env=None,
                    rng=np.random.default_rng(
                        derive_policy_seed(config.seed, agent_id)),
                    state=observations[agent_id],
                    rollout=Rollout()))
        else:
            for agent_id in range(config.num_agents):
                env = env_factory(agent_id)
                env.seed(derive_agent_seed(config.seed, agent_id))
                self.workers.append(_GA3CWorker(
                    env=env,
                    rng=np.random.default_rng(
                        derive_policy_seed(config.seed, agent_id)),
                    state=env.reset(),
                    rollout=Rollout()))
        self._train_queue: collections.deque = collections.deque()
        self._routines = 0

    @property
    def backend(self):
        """The injected compute backend (default ``ga3c-tf``; resolved
        lazily so numeric-only runs never build a platform model)."""
        if self._backend is None:
            self._backend = resolve_backend(self._platform)
        return self._backend

    def _predict(self, workers: typing.Sequence[_GA3CWorker], lat=None
                 ) -> typing.Tuple[np.ndarray, np.ndarray]:
        """One batched inference over the *global* model.

        ``lat``, when present, receives the request-gathering time as
        ``batch_form`` and the forward pass as ``infer`` — the
        batching-vs-turnaround decomposition FA3C's latency argument
        hinges on.
        """
        phase_started = time.perf_counter_ns() if lat is not None else 0
        if self.batched_env is not None:
            # Already one (N, ...) float32 batch — no gather/copy needed.
            states = self.batched_env.observations
        else:
            states = np.stack([w.state for w in workers]).astype(
                np.float32, copy=False)
        if lat is not None:
            lat.add_ns("batch_form",
                       time.perf_counter_ns() - phase_started)
            phase_started = time.perf_counter_ns()
        logits, values = self.network.forward(states, self.server.params)
        if lat is not None:
            lat.add_ns("infer", time.perf_counter_ns() - phase_started)
        return logits, values

    def _finish_rollout(self, worker: _GA3CWorker, terminal: bool) -> None:
        """Queue a finished rollout with its bootstrap value.

        The queue entry carries its enqueue timestamp (``perf_counter_ns``
        when observability is on, else 0) so the trainer side can
        attribute queue-wait latency.
        """
        bootstrap = 0.0
        if not terminal:
            _, values = self.network.forward(worker.state[None],
                                             self.server.params)
            bootstrap = float(values[0])
        states, actions, returns = worker.rollout.batch(
            bootstrap, self.config.gamma)
        enqueued = time.perf_counter_ns() if _obs.enabled() else 0
        self._train_queue.append((states, actions, returns, enqueued))
        worker.rollout = Rollout()

    @hot_path
    def _train_from_queue(self) -> None:
        """Drain queued rollouts into one combined training batch."""
        if len(self._train_queue) < self.training_batch_rollouts:
            return
        observing = _obs.enabled()
        started = time.perf_counter() if observing else 0.0
        batches = [self._train_queue.popleft()
                   for _ in range(self.training_batch_rollouts)]
        lat = None
        if observing:
            now = time.perf_counter_ns()
            # Rollouts enqueued before obs was enabled carry stamp 0;
            # queue wait is measured from the oldest stamped entry.
            stamps = [b[3] for b in batches if b[3]]
            start_ns = min(stamps) if stamps else now
            lat = _lat.RoutineLatency("ga3c",
                                      platform=self._lat_platform,
                                      start_ns=start_ns)
            if stamps:
                lat.add_ns("queue_wait", now - start_ns)
        phase_started = time.perf_counter_ns() if observing else 0
        states = np.concatenate([b[0] for b in batches])
        actions = np.concatenate([b[1] for b in batches])
        returns = np.concatenate([b[2] for b in batches])
        if lat is not None:
            lat.add_ns("batch_form",
                       time.perf_counter_ns() - phase_started)
        # GA3C trains against the single global parameter set (the
        # source of its policy lag) through the shared update path.  It
        # keeps no feature maps: θ has moved since they were computed.
        apply_rollout_update(self.network, self.server.params,
                             self.server, states, actions, returns,
                             self.config.entropy_beta, lat=lat)
        self._routines += 1
        if observing:
            record_routine("ga3c", started, len(states),
                           lane="ga3c-trainer", span_name="train_batch",
                           span_labels={"samples": len(states)}, lat=lat)

    def _advance_scalar(self, logits: np.ndarray,
                        values: np.ndarray) -> None:
        """Sample and apply one action per worker on its own env."""
        for index, worker in enumerate(self.workers):
            probs = softmax(logits[index])
            action = int(worker.rng.choice(len(probs), p=probs))
            obs, reward, done, info = worker.env.step(action)
            worker.episode_score += info.get("raw_reward", reward)
            worker.rollout.add(worker.state, action, reward,
                               float(values[index]))
            worker.state = obs
            if done:
                if not info.get("life_lost"):
                    self.tracker.record(self.server.global_step,
                                        worker.episode_score)
                    worker.episode_score = 0.0
                    worker.episodes += 1
                worker.state = worker.env.reset()
                self._finish_rollout(worker, terminal=True)
            elif len(worker.rollout) >= self.config.t_max:
                self._finish_rollout(worker, terminal=False)

    @hot_path
    def _advance_batched(self, logits: np.ndarray,
                         values: np.ndarray) -> None:
        """Sample every worker's action, then advance all slots in one
        batched env step (finished slots auto-reset inside it)."""
        probs = softmax(logits)
        actions = np.array([
            int(worker.rng.choice(probs.shape[1], p=probs[index]))
            for index, worker in enumerate(self.workers)])
        step = self.batched_env.step(actions)
        for index, worker in enumerate(self.workers):
            info = step.infos[index]
            reward = float(step.rewards[index])
            worker.episode_score += info.get("raw_reward", reward)
            worker.rollout.add(worker.state, int(actions[index]), reward,
                               float(values[index]))
            # For finished slots this row is already the reset
            # observation, matching the scalar path's env.reset().
            worker.state = step.observations[index]
            if step.dones[index]:
                if not info.get("life_lost"):
                    self.tracker.record(self.server.global_step,
                                        worker.episode_score)
                    worker.episode_score = 0.0
                    worker.episodes += 1
                self._finish_rollout(worker, terminal=True)
            elif len(worker.rollout) >= self.config.t_max:
                self._finish_rollout(worker, terminal=False)

    def train(self, max_steps: typing.Optional[int] = None) -> TrainResult:
        """Run the predictor/trainer loop until ``max_steps``."""
        if max_steps is not None:
            self.config.max_steps = max_steps
        # perf_counter: monotonic, so rates survive NTP clock steps.
        start = time.perf_counter()
        while self.server.global_step < self.config.max_steps:
            # Predictor: one batched inference for every waiting agent.
            plat = (_lat.RoutineLatency("ga3c-predict",
                                        platform=self._lat_platform)
                    if _obs.enabled() else None)
            with _obs.span("ga3c-predictor", "predict_batch",
                           batch=len(self.workers)):
                logits, values = self._predict(self.workers, lat=plat)
            if plat is not None:
                plat.finish()
            if self.batched_env is not None:
                self._advance_batched(logits, values)
            else:
                self._advance_scalar(logits, values)
            self.server.add_steps(len(self.workers))
            # Trainer: combine queued rollouts into large batches.
            self._train_from_queue()
        elapsed = time.perf_counter() - start
        return TrainResult(global_steps=self.server.global_step,
                           routines=self._routines,
                           episodes=sum(w.episodes for w in self.workers),
                           wall_seconds=elapsed,
                           tracker=self.tracker,
                           params=self.server.snapshot())
