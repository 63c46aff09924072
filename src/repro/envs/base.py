"""The environment interface."""

from __future__ import annotations

import typing

import numpy as np


class Env:
    """Base environment: ``reset() -> obs``, ``step(a) -> (obs, r, done,
    info)``.

    Environments own a :class:`numpy.random.Generator` seeded through
    :meth:`seed` so that rollouts are reproducible — the paper notes each
    game instance is assigned a different random seed (Section 5.6).
    """

    observation_space = None
    action_space = None

    def __init__(self):
        self.rng = np.random.default_rng()

    def seed(self, seed: typing.Optional[int] = None) -> None:
        """Re-seed the environment's random stream."""
        self.rng = np.random.default_rng(seed)

    def reset(self) -> np.ndarray:
        """Start a new episode and return the first observation."""
        raise NotImplementedError

    def step(self, action: int) -> typing.Tuple[
            np.ndarray, float, bool, dict]:
        """Apply an action; returns (observation, reward, done, info)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any resources (no-op by default)."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"
