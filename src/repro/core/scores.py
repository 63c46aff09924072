"""Score tracking and training-curve utilities.

The paper's Figure 12 plots the moving average over 1,000 game scores
against the number of processed inference steps; :class:`ScoreTracker`
records exactly that series.

Not to be confused with :mod:`repro.core.evaluate`, which rolls out a
trained policy.
"""

from __future__ import annotations

import threading
import typing

import numpy as np


def moving_average(values: typing.Sequence[float],
                   window: int) -> np.ndarray:
    """Trailing moving average with a growing window at the start."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return values.astype(np.float32)
    cumulative = np.cumsum(values)
    out = np.empty_like(values)
    for index in range(values.size):
        start = max(0, index - window + 1)
        total = cumulative[index] - (cumulative[start - 1] if start else 0.0)
        out[index] = total / (index - start + 1)
    return out.astype(np.float32)


class ScoreTracker:
    """Thread-safe recorder of (global_step, episode_score) pairs."""

    def __init__(self, window: int = 1000):
        self.window = window
        self._lock = threading.Lock()
        self._steps: typing.List[int] = []
        self._scores: typing.List[float] = []

    def record(self, global_step: int, score: float) -> None:
        """Record one finished episode."""
        with self._lock:
            self._steps.append(int(global_step))
            self._scores.append(float(score))

    def __len__(self) -> int:
        return len(self._scores)

    @property
    def steps(self) -> np.ndarray:
        with self._lock:
            return np.asarray(self._steps, dtype=np.int64)

    @property
    def scores(self) -> np.ndarray:
        with self._lock:
            return np.asarray(self._scores, dtype=np.float64)

    def curve(self) -> typing.Tuple[np.ndarray, np.ndarray]:
        """(steps, moving-average scores) — the Figure 12 series."""
        with self._lock:
            steps = np.asarray(self._steps, dtype=np.int64)
            scores = list(self._scores)
        return steps, moving_average(scores, self.window)

    def recent_mean(self, count: typing.Optional[int] = None) -> float:
        """Mean of the last ``count`` scores (default: the window)."""
        count = count or self.window
        with self._lock:
            if not self._scores:
                return float("nan")
            return float(np.mean(self._scores[-count:]))

    def steps_to_reach(self, threshold: float,
                       window: int = 100) -> typing.Optional[int]:
        """First global step at which the windowed mean score reaches
        ``threshold`` (the Section 3.2 t_max study metric); ``None`` if
        never reached."""
        with self._lock:
            steps = self._steps
            scores = self._scores
            for index in range(len(scores)):
                start = max(0, index - window + 1)
                if np.mean(scores[start:index + 1]) >= threshold:
                    return steps[index]
        return None
