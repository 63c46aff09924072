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
    derive_policy_seed,
    resolve_backend,
    sample_actions,
)
from repro.core.scores import ScoreTracker
from repro.core.parameter_server import ParameterServer
from repro.core.rollout import Rollout
from repro.core.trainer import TrainResult
from repro.envs.base import Env
from repro.envs.vector import SyncVectorEnv
from repro.obs import lat as _lat
from repro.obs import runtime as _obs
from repro.nn.losses import softmax
from repro.nn.network import A3CNetwork
from repro.perf.hotpath import hot_path


@dataclasses.dataclass
class _GA3CWorker:
    """Host-side state of one GA3C agent (no local parameters)."""

    rng: np.random.Generator
    state: np.ndarray
    rollout: Rollout


class GA3CTrainer:
    """Batched single-model A3C (GA3C).

    All agents' environments step as one vector env, as PAAC's do: a
    ``vector_env`` passed in (e.g. a
    :class:`~repro.envs.batched.BatchedVectorEnv`, which the caller
    seeds with ``config.seed``), or a
    :class:`~repro.envs.vector.SyncVectorEnv` over ``env_factory``.
    """

    def __init__(self, env_factory: typing.Callable[[int], Env],
                 network_factory: typing.Callable[[], A3CNetwork],
                 config: A3CConfig,
                 training_batch_rollouts: int = 4,
                 tracker: typing.Optional[ScoreTracker] = None,
                 platform=None,
                 vector_env=None):
        self.config = config
        self.tracker = tracker or ScoreTracker()
        self.training_batch_rollouts = training_batch_rollouts
        self._platform = platform if platform is not None else "ga3c-tf"
        self._lat_platform = (self._platform
                              if isinstance(self._platform, str) else None)
        self._backend = None
        rng = np.random.default_rng(config.seed)
        self.network = network_factory()
        self.server = ParameterServer(self.network.init_params(rng), config)
        if vector_env is not None:
            if vector_env.num_envs != config.num_agents:
                raise ValueError(
                    f"vector_env has {vector_env.num_envs} slots; "
                    f"config.num_agents is {config.num_agents}")
            self.vector_env = vector_env
        else:
            # SyncVectorEnv applies the repro-wide seeding contract
            # (repro.backends.protocol.derive_agent_seed) per slot.
            self.vector_env = SyncVectorEnv(
                [lambda i=i: env_factory(i)
                 for i in range(config.num_agents)],
                seed=config.seed)
        observations = self.vector_env.reset()
        self.workers = [
            _GA3CWorker(rng=np.random.default_rng(
                            derive_policy_seed(config.seed, agent_id)),
                        state=observations[agent_id],
                        rollout=Rollout())
            for agent_id in range(config.num_agents)]
        self.episodes = 0
        self._train_queue: collections.deque = collections.deque()
        self._routines = 0

    @property
    def backend(self):
        """The injected compute backend (default ``ga3c-tf``; resolved
        lazily so numeric-only runs never build a platform model)."""
        if self._backend is None:
            self._backend = resolve_backend(self._platform)
        return self._backend

    def _predict(self, lat=None) -> typing.Tuple[np.ndarray, np.ndarray]:
        """One batched inference over the *global* model.

        ``lat``, when present, is lapped at the gathered request batch
        (``batch_form``) and after the forward pass (``infer``) — the
        batching-vs-turnaround decomposition FA3C's latency argument
        hinges on.
        """
        # Already one (N, ...) float32 batch — no gather/copy needed.
        states = self.vector_env.observations
        if lat is not None:
            lat.lap("batch_form")
        logits, values = self.network.forward(states, self.server.params)
        if lat is not None:
            lat.lap("infer")
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
        batches = [self._train_queue.popleft()
                   for _ in range(self.training_batch_rollouts)]
        lat = None
        if _obs.enabled():
            # The routine starts when its oldest rollout was queued.
            # Rollouts queued before obs was enabled carry stamp 0.
            stamps = [b[3] for b in batches if b[3]]
            lat = _lat.RoutineLatency("ga3c", platform=self._lat_platform,
                                      lane="ga3c-trainer",
                                      start_ns=min(stamps, default=None))
            lat.lap("queue_wait")
        states = np.concatenate([b[0] for b in batches])
        actions = np.concatenate([b[1] for b in batches])
        returns = np.concatenate([b[2] for b in batches])
        if lat is not None:
            lat.lap("batch_form")
        # GA3C trains against the single global parameter set (the
        # source of its policy lag) through the shared update path.  It
        # keeps no feature maps: θ has moved since they were computed.
        apply_rollout_update(self.network, self.server.params,
                             self.server, states, actions, returns,
                             self.config.entropy_beta, lat=lat)
        self._routines += 1
        if lat is not None:
            lat.finish(len(states))

    @hot_path
    def _advance(self, logits: np.ndarray, values: np.ndarray) -> None:
        """Sample every worker's action, then advance all slots in one
        vector env step (finished slots auto-reset inside it)."""
        actions = sample_actions([worker.rng for worker in self.workers],
                                 softmax(logits))
        step = self.vector_env.step(actions)
        for _slot, score in step.finished_scores:
            self.tracker.record(self.server.global_step, score)
            self.episodes += 1
        for index, worker in enumerate(self.workers):
            worker.rollout.add(worker.state, int(actions[index]),
                               float(step.rewards[index]),
                               float(values[index]))
            # For finished slots this row is already the reset
            # observation.
            worker.state = step.observations[index]
            if step.dones[index]:
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
                                        platform=self._lat_platform,
                                        lane="ga3c-predictor")
                    if _obs.enabled() else None)
            logits, values = self._predict(lat=plat)
            if plat is not None:
                plat.finish()
            self._advance(logits, values)
            self.server.add_steps(len(self.workers))
            # Trainer: combine queued rollouts into large batches.
            self._train_from_queue()
        elapsed = time.perf_counter() - start
        return TrainResult(global_steps=self.server.global_step,
                           routines=self._routines,
                           episodes=self.episodes,
                           wall_seconds=elapsed,
                           tracker=self.tracker,
                           params=self.server.snapshot())
