"""Observation and action spaces."""

from __future__ import annotations

import typing

import numpy as np


class Discrete:
    """A finite set of actions ``{0, ..., n-1}``."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"Discrete space needs n >= 1, got {n}")
        self.n = n

    def contains(self, value) -> bool:
        """True if ``value`` is a valid action index: a Python or NumPy
        integer in range (``"3"``, ``2.9`` and ``True`` are not)."""
        return (isinstance(value, (int, np.integer))
                and not isinstance(value, bool) and 0 <= value < self.n)

    def sample(self, rng: np.random.Generator) -> int:
        """A uniformly random action."""
        return int(rng.integers(self.n))

    def __eq__(self, other) -> bool:
        return isinstance(other, Discrete) and other.n == self.n

    def __repr__(self) -> str:
        return f"Discrete({self.n})"


class Box:
    """A bounded array-valued space with a fixed shape and dtype."""

    def __init__(self, low: float, high: float,
                 shape: typing.Sequence[int], dtype=np.float32):
        self.low = low
        self.high = high
        self.shape = tuple(shape)
        self.dtype = np.dtype(dtype)

    def contains(self, value) -> bool:
        """True if ``value`` has the right shape and lies in the bounds."""
        array = np.asarray(value)
        if array.shape != self.shape:
            return False
        return bool((array >= self.low).all() and (array <= self.high).all())

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """A uniform random point of the box."""
        return rng.uniform(self.low, self.high,
                           size=self.shape).astype(self.dtype)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Box) and other.shape == self.shape
                and other.low == self.low and other.high == self.high
                and other.dtype == self.dtype)

    def __repr__(self) -> str:
        return f"Box({self.low}, {self.high}, {self.shape}, {self.dtype})"
