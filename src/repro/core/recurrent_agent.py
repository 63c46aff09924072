"""The recurrent (A3C-LSTM) agent.

Mirrors :class:`~repro.core.agent.A3CAgent` with the recurrent-state
bookkeeping the LSTM variant needs:

* the LSTM carry persists across steps and resets at episode boundaries;
* the carry at the *start* of each rollout is saved so the training pass
  can replay the rollout with truncated BPTT from the same state;
* the bootstrapping inference runs from the carry at the rollout's end.
"""

from __future__ import annotations

import typing

import numpy as np

from repro.core.agent import RoutineStats
from repro.core.config import A3CConfig
from repro.core.execution import derive_policy_seed
from repro.core.parameter_server import ParameterServer
from repro.core.rollout import Rollout
from repro.envs.base import Env
from repro.nn.losses import a3c_loss_and_head_gradients, softmax
from repro.nn.network_lstm import RecurrentPolicyNetwork
from repro.nn.parameters import ParameterSet


class RecurrentA3CAgent:
    """One asynchronous actor-learner with LSTM state."""

    def __init__(self, agent_id: int, env: Env,
                 network: RecurrentPolicyNetwork,
                 server: ParameterServer, config: A3CConfig,
                 rng: typing.Optional[np.random.Generator] = None):
        self.agent_id = agent_id
        self.env = env
        self.network = network
        self.server = server
        self.config = config
        self.rng = rng or np.random.default_rng(
            derive_policy_seed(config.seed, agent_id))
        self.local_params: ParameterSet = server.snapshot()
        self.rollout = Rollout()
        self._state = env.reset()
        self._carry = network.initial_state()
        self._episode_score = 0.0
        self.episodes_finished = 0

    def run_routine(self, lat=None) -> RoutineStats:
        """One sync / rollout / BPTT-train routine.

        ``lat`` is an optional :class:`repro.obs.lat.RoutineLatency`,
        lapped into the same segments as the feed-forward agent's.
        """
        self.server.snapshot_into(self.local_params)
        if lat is not None:
            lat.lap("param_sync")
        self.rollout.clear()
        rollout_carry = self._carry.copy()   # BPTT starting point
        scores: typing.List[float] = []

        terminal = False
        for _ in range(self.config.t_max):
            logits, values, self._carry = self.network.forward_step(
                self._state[None], self.local_params, self._carry)
            probs = softmax(logits[0])
            action = int(self.rng.choice(len(probs), p=probs))
            if lat is not None:
                lat.lap("infer")
            obs, reward, done, info = self.env.step(action)
            self._episode_score += info.get("raw_reward", reward)
            self.rollout.add(self._state, action, reward,
                             float(values[0]))
            self._state = obs
            if done:
                terminal = True
                if not info.get("life_lost"):
                    scores.append(self._episode_score)
                    self.episodes_finished += 1
                    self._episode_score = 0.0
                self._state = self.env.reset()
                self._carry = self.network.initial_state()
            if lat is not None:
                lat.lap("env_step")
            if terminal:
                break

        steps = len(self.rollout)
        self.server.add_steps(steps)

        bootstrap_inferences = 0
        bootstrap_value = 0.0
        if not terminal:
            _, values, _ = self.network.forward_step(
                self._state[None], self.local_params, self._carry)
            if lat is not None:
                lat.lap("infer")
            bootstrap_value = float(values[0])
            bootstrap_inferences = 1

        states, actions, returns = self.rollout.batch(
            bootstrap_value, self.config.gamma)
        if lat is not None:
            lat.lap("batch_form")
        logits, values, _ = self.network.forward_rollout(
            states, self.local_params, rollout_carry)
        loss = a3c_loss_and_head_gradients(
            logits, values, actions, returns,
            entropy_beta=self.config.entropy_beta)
        grads = self.network.backward_and_grads(
            loss.dlogits, loss.dvalues, self.local_params)
        if lat is not None:
            lat.lap("train")
        self.server.apply_gradients(grads)
        if lat is not None:
            lat.lap("apply")

        return RoutineStats(steps=steps,
                            bootstrap_inferences=bootstrap_inferences,
                            trained=True,
                            policy_loss=loss.policy_loss,
                            value_loss=loss.value_loss,
                            entropy=loss.entropy,
                            episode_scores=tuple(scores))
