"""Rollout storage and n-step bootstrapped returns.

A rollout is the batch of up to ``t_max`` (state, action, reward) triples an
agent collects between training tasks; :func:`compute_returns` implements
the bootstrap estimate

    R_t = sum_{i=0}^{k-1} gamma^i r_{t+i} + gamma^k V(s_{t+k})

of paper Section 2.2 (the ``V(s_{t+k})`` term is dropped at terminal
states).
"""

from __future__ import annotations

import typing

import numpy as np


def compute_returns(rewards: typing.Sequence[float], bootstrap_value: float,
                    gamma: float) -> np.ndarray:
    """Discounted n-step returns, computed backwards from the bootstrap.

    ``bootstrap_value`` is ``V(s_{t+k})`` from the extra inference the agent
    performs before the training task (0 at terminal states).
    """
    returns = np.empty(len(rewards), dtype=np.float32)
    running = float(bootstrap_value)
    for index in range(len(rewards) - 1, -1, -1):
        running = rewards[index] + gamma * running
        returns[index] = running
    return returns


class Rollout:
    """Accumulates one training batch of experience."""

    def __init__(self):
        self.states: typing.List[np.ndarray] = []
        self.actions: typing.List[int] = []
        self.rewards: typing.List[float] = []
        self.values: typing.List[float] = []
        self.terminal = False

    def __len__(self) -> int:
        return len(self.states)

    def add(self, state: np.ndarray, action: int, reward: float,
            value: float) -> None:
        """Record one environment transition."""
        self.states.append(state)
        self.actions.append(int(action))
        self.rewards.append(float(reward))
        self.values.append(float(value))

    def clear(self) -> None:
        """Empty the rollout for the next batch."""
        self.states.clear()
        self.actions.clear()
        self.rewards.clear()
        self.values.clear()
        self.terminal = False

    def batch(self, bootstrap_value: float, gamma: float) -> typing.Tuple[
            np.ndarray, np.ndarray, np.ndarray]:
        """Stack into training arrays: (states, actions, returns)."""
        if not self.states:
            raise ValueError("empty rollout")
        states = np.stack(self.states).astype(np.float32, copy=False)
        actions = np.asarray(self.actions, dtype=np.int64)
        returns = compute_returns(self.rewards, bootstrap_value, gamma)
        return states, actions, returns

    def advantages(self, bootstrap_value: float,
                   gamma: float) -> np.ndarray:
        """R_t - V(s_t) for each step (diagnostic use)."""
        returns = compute_returns(self.rewards, bootstrap_value, gamma)
        return returns - np.asarray(self.values, dtype=np.float32)
