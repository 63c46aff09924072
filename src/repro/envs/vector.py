"""Synchronous vectorised environments.

PAAC's defining trait is stepping all agents' environments in lockstep
and batching every DNN call (paper Section 6).  :class:`SyncVectorEnv`
provides that substrate: N independent environments advanced together,
with automatic reset-on-done and per-slot episode-score accounting
(respecting the Atari pipeline's convention that a life loss ends a
training episode but not the scored game).
"""

from __future__ import annotations

import dataclasses
import typing

import numpy as np

from repro.envs.base import Env


@dataclasses.dataclass
class VectorStep:
    """The result of stepping every slot once."""

    observations: np.ndarray          # (N, ...) float32
    rewards: np.ndarray               # (N,)
    dones: np.ndarray                 # (N,) bool — training episode end
    infos: typing.List[dict]
    finished_scores: typing.List[typing.Tuple[int, float]]
    """(slot, full-game score) for every game that truly ended."""


class SyncVectorEnv:
    """N environments stepped in lockstep."""

    def __init__(self, env_factories: typing.Sequence[
            typing.Callable[[], Env]],
            seed: typing.Optional[int] = None):
        self.envs: typing.List[Env] = [factory()
                                       for factory in env_factories]
        if not self.envs:
            raise ValueError("need at least one environment")
        # Slot 0's spaces stand in for the whole batch (the policy head
        # sizes itself from them), so every slot must agree on the
        # action count.
        sizes = {getattr(env.action_space, "n", None)
                 for env in self.envs}
        if len(sizes) > 1:
            raise ValueError(
                "heterogeneous action spaces across slots: "
                f"{sorted(str(s) for s in sizes)}; all environments in "
                "a vector must expose the same action count")
        self.num_envs = len(self.envs)
        if seed is not None:
            # Lazy: the seeding contract lives with the backend
            # protocol, and a module-scope import would drag the
            # platform adapters into every envs import (layering).
            from repro.backends.protocol import derive_agent_seed
            for index, env in enumerate(self.envs):
                env.seed(derive_agent_seed(seed, index))
        self._scores = np.zeros(self.num_envs)
        self._observations: typing.Optional[np.ndarray] = None

    @property
    def action_space(self):
        return self.envs[0].action_space

    @property
    def observation_space(self):
        return self.envs[0].observation_space

    def reset(self) -> np.ndarray:
        """Reset every slot; returns stacked observations."""
        self._scores[:] = 0.0
        observations = [env.reset() for env in self.envs]
        self._observations = np.stack(observations).astype(np.float32,
                                                           copy=False)
        return self._observations

    @property
    def observations(self) -> np.ndarray:
        """The latest stacked observations."""
        if self._observations is None:
            raise RuntimeError("reset() the vector env first")
        return self._observations

    def step(self, actions: typing.Sequence[int]) -> VectorStep:
        """Step every slot; finished slots auto-reset.

        Each action goes to its env uncast, so the env's own action
        check sees it: a float or string action (``2.9``, ``"1"``)
        raises ``ValueError`` there instead of being truncated.
        """
        if len(actions) != self.num_envs:
            raise ValueError(f"expected {self.num_envs} actions, "
                             f"got {len(actions)}")
        observations = np.empty_like(self.observations)
        rewards = np.zeros(self.num_envs, dtype=np.float32)
        dones = np.zeros(self.num_envs, dtype=bool)
        infos: typing.List[dict] = []
        finished: typing.List[typing.Tuple[int, float]] = []
        for index, (env, action) in enumerate(zip(self.envs, actions)):
            obs, reward, done, info = env.step(action)
            self._scores[index] += info.get("raw_reward", reward)
            rewards[index] = reward
            dones[index] = done
            infos.append(info)
            if done:
                if not info.get("life_lost"):
                    finished.append((index, float(self._scores[index])))
                    self._scores[index] = 0.0
                obs = env.reset()
            observations[index] = obs
        self._observations = observations
        return VectorStep(observations=observations, rewards=rewards,
                          dones=dones, infos=infos,
                          finished_scores=finished)

    def close(self) -> None:
        for env in self.envs:
            env.close()
