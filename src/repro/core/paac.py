"""PAAC baseline (Clemente et al., 2017).

PAAC keeps a single parameter set like GA3C but makes everything
*synchronous*: all agents step in lockstep for t_max steps via a
vectorised environment, then one update is computed from the combined
batch and every agent waits for it (paper Section 6: "since all training
steps are synchronized, the performance may not scale to a larger number
of agents").
"""

from __future__ import annotations

import time
import typing

import numpy as np

from repro.core.config import A3CConfig
from repro.core.execution import (
    apply_rollout_update,
    derive_policy_seed,
    record_routine,
    resolve_backend,
)
from repro.core.scores import ScoreTracker
from repro.core.parameter_server import ParameterServer
from repro.core.trainer import TrainResult
from repro.envs.base import Env
from repro.envs.vector import SyncVectorEnv
from repro.nn.losses import softmax
from repro.nn.network import A3CNetwork
from repro.obs import lat as _lat
from repro.obs import runtime as _obs


class PAACTrainer:
    """Synchronous batched advantage actor-critic.

    The rollout keeps each step's ``vector_env.observations`` array as it
    is, without a copy, until the update stacks them.  That relies on the
    vector env's contract: ``reset`` and ``step`` return a new
    observations array and never write into one they have returned
    before.  :class:`~repro.envs.vector.SyncVectorEnv` and
    :class:`~repro.envs.batched.BatchedVectorEnv` keep it, life-loss and
    game-over resets included (``tests/test_envs_vector.py``); a
    ``vector_env`` passed in must keep it too.
    """

    def __init__(self, env_factory: typing.Callable[[int], Env],
                 network_factory: typing.Callable[[], A3CNetwork],
                 config: A3CConfig,
                 tracker: typing.Optional[ScoreTracker] = None,
                 platform=None,
                 vector_env=None):
        self.config = config
        self.tracker = tracker or ScoreTracker()
        self._platform = platform
        self._lat_platform = platform if isinstance(platform, str) else None
        self._backend = None
        rng = np.random.default_rng(config.seed)
        self.network = network_factory()
        self.server = ParameterServer(self.network.init_params(rng), config)
        if vector_env is not None:
            # A prebuilt vectorised substrate — e.g. a
            # repro.envs.BatchedVectorEnv stepping all slots through the
            # structure-of-arrays engine in one call.  The caller is
            # responsible for seeding it with config.seed so the per-slot
            # contract (derive_agent_seed) holds.
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
        self.rngs = [np.random.default_rng(
                         derive_policy_seed(config.seed, agent_id))
                     for agent_id in range(config.num_agents)]
        self.vector_env.reset()
        self.episodes = 0
        self._routines = 0

    @property
    def backend(self):
        """The injected compute backend (resolved lazily, so numeric-only
        runs never build a platform model)."""
        if self._backend is None:
            self._backend = resolve_backend(self._platform)
        return self._backend

    def _rollout_phase(self, lat=None
                       ) -> typing.Tuple[np.ndarray, np.ndarray,
                                         np.ndarray, np.ndarray,
                                         np.ndarray, list]:
        """Step all agents t_max times in lockstep.

        Shapes: states ``(T, N, ...)``, actions/rewards/dones ``(T, N)``,
        final bootstrap values ``(N,)``; then the trunk feature maps of
        each step's inference, which the update reuses (θ does not move
        before it).  ``lat``, when present, receives every batched
        forward pass as ``infer``.
        """
        timed = lat is not None
        n = self.config.num_agents
        all_states, all_actions, all_rewards, all_dones = [], [], [], []
        maps = []
        for _ in range(self.config.t_max):
            states = self.vector_env.observations
            phase_started = time.perf_counter_ns() if timed else 0
            logits, _values = self.network.forward(states,
                                                   self.server.params)
            maps.append(self.network.feature_maps())
            if timed:
                lat.add_ns("infer",
                           time.perf_counter_ns() - phase_started)
            probs = softmax(logits)
            actions = np.array([
                self.rngs[i].choice(probs.shape[1], p=probs[i])
                for i in range(n)])
            all_states.append(states)
            step = self.vector_env.step(actions)
            for _slot, score in step.finished_scores:
                self.tracker.record(self.server.global_step, score)
                self.episodes += 1
            all_actions.append(actions)
            all_rewards.append(step.rewards)
            all_dones.append(step.dones)
            self.server.add_steps(n)
        phase_started = time.perf_counter_ns() if timed else 0
        _, bootstrap = self.network.forward(self.vector_env.observations,
                                            self.server.params)
        if timed:
            lat.add_ns("infer", time.perf_counter_ns() - phase_started)
        return (np.stack(all_states), np.stack(all_actions),
                np.stack(all_rewards), np.stack(all_dones), bootstrap,
                maps)

    def _returns(self, rewards: np.ndarray, dones: np.ndarray,
                 bootstrap: np.ndarray) -> np.ndarray:
        """Per-agent n-step returns with terminal masking; ``(T, N)``."""
        t_max, _ = rewards.shape
        returns = np.zeros_like(rewards)
        running = bootstrap.astype(np.float32).copy()
        for t in range(t_max - 1, -1, -1):
            running = np.where(dones[t], 0.0, running)
            running = rewards[t] + self.config.gamma * running
            returns[t] = running
        return returns

    def train(self, max_steps: typing.Optional[int] = None) -> TrainResult:
        """Run synchronous update rounds until ``max_steps``."""
        if max_steps is not None:
            self.config.max_steps = max_steps
        # perf_counter: monotonic, so rates survive NTP clock steps.
        start = time.perf_counter()
        while self.server.global_step < self.config.max_steps:
            round_started = time.perf_counter() if _obs.enabled() else 0.0
            lat = (_lat.RoutineLatency("paac",
                                       platform=self._lat_platform)
                   if _obs.enabled() else None)
            with _obs.span("paac", "rollout_phase"):
                states, actions, rewards, dones, bootstrap, maps = \
                    self._rollout_phase(lat=lat)
            phase_started = (time.perf_counter_ns()
                             if lat is not None else 0)
            returns = self._returns(rewards, dones, bootstrap)
            if lat is not None:
                lat.add_ns("batch_form",
                           time.perf_counter_ns() - phase_started)
            # One synchronous update over the combined (T*N) batch,
            # through the shared rollout-to-update path.
            with _obs.span("paac", "update"):
                flat_states = states.reshape((-1,) + states.shape[2:])
                apply_rollout_update(
                    self.network, self.server.params, self.server,
                    flat_states, actions.reshape(-1).astype(np.int64),
                    returns.reshape(-1), self.config.entropy_beta,
                    maps=maps, lat=lat)
                del maps    # not held through the next rollout
            self._routines += 1
            if _obs.enabled():
                # Rollout/update tracer spans are recorded above; the
                # per-routine span is skipped (lane=None).
                record_routine("paac", round_started,
                               self.config.t_max * self.config.num_agents,
                               lat=lat)
        elapsed = time.perf_counter() - start
        return TrainResult(global_steps=self.server.global_step,
                           routines=self._routines,
                           episodes=self.episodes,
                           wall_seconds=elapsed,
                           tracker=self.tracker,
                           params=self.server.snapshot())
