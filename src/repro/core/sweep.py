"""Learning-rate sweeps — the paper's tuning methodology.

Section 5.6: "The training results reported in the original A3C
publication show the average scores from the best training runs with
different learning rate per game", and Section 5.1: "We present the
result from best-performing configuration parameters of each
implementation."  This module makes that protocol a first-class utility:
run the same training recipe over a grid of learning rates (optionally
multiple seeds) and pick the best by final mean score.
"""

from __future__ import annotations

import dataclasses
import typing

import numpy as np

from repro.core.config import A3CConfig
from repro.core.trainer import A3CTrainer, TrainResult


@dataclasses.dataclass
class SweepEntry:
    """One (learning rate, seed) training run's outcome."""

    learning_rate: float
    seed: int
    final_score: float
    episodes: int
    result: TrainResult


@dataclasses.dataclass
class SweepResult:
    """All runs of a sweep plus the winner."""

    entries: typing.List[SweepEntry]

    @property
    def best(self) -> SweepEntry:
        finite = [e for e in self.entries if np.isfinite(e.final_score)]
        if not finite:
            raise ValueError("no run produced any scored episodes")
        return max(finite, key=lambda e: e.final_score)

    def by_learning_rate(self) -> typing.Dict[
            float, typing.List[SweepEntry]]:
        grouped: typing.Dict[float, typing.List[SweepEntry]] = {}
        for entry in self.entries:
            grouped.setdefault(entry.learning_rate, []).append(entry)
        return grouped

    def rows(self) -> typing.List[typing.Dict[str, object]]:
        """Printable summary, mean score per learning rate."""
        rows = []
        for lr, entries in sorted(self.by_learning_rate().items()):
            scores = [e.final_score for e in entries
                      if np.isfinite(e.final_score)]
            rows.append({
                "learning_rate": lr,
                "runs": len(entries),
                "mean_final_score":
                float(np.mean(scores)) if scores else float("nan"),
                "best_final_score":
                float(np.max(scores)) if scores else float("nan"),
            })
        return rows


def sweep_learning_rates(
        env_factory: typing.Callable[[int], object],
        network_factory: typing.Callable[[], object],
        base_config: A3CConfig,
        learning_rates: typing.Sequence[float],
        seeds: typing.Sequence[int] = (0,),
        score_window: int = 100,
        actors: str = "serial",
        agent_class: typing.Optional[type] = None,
        platform=None) -> SweepResult:
    """Train once per (learning rate, seed); returns every outcome.

    Each run gets an independent config (same budget, different rate and
    seed), matching the paper's per-game tuning protocol.  ``actors`` and
    ``platform`` (a compute-backend registry name or instance) are handed
    to every trainer unchanged.
    """
    entries = []
    for learning_rate in learning_rates:
        for seed in seeds:
            config = dataclasses.replace(base_config,
                                         learning_rate=learning_rate,
                                         seed=seed)
            kwargs = {} if agent_class is None \
                else {"agent_class": agent_class}
            trainer = A3CTrainer(env_factory, network_factory, config,
                                 platform=platform, **kwargs)
            result = trainer.train(actors=actors)
            entries.append(SweepEntry(
                learning_rate=learning_rate, seed=seed,
                final_score=result.tracker.recent_mean(score_window),
                episodes=result.episodes,
                result=result))
    return SweepResult(entries=entries)
