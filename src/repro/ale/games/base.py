"""One game as an :class:`~repro.envs.Env`: slot 0 of a batch-1 engine.

Each game renders to a 210x160 RGB screen (the real Atari 2600 / ALE
frame size), exposes a *minimal action set* drawn from the canonical 18
ALE actions, tracks lives and score, and advances one frame per
:meth:`AtariGame.step` (frame-skipping is applied by the preprocessing
pipeline, :mod:`repro.envs.batched`, as in the real one).  The dynamics
and rendering live in the batched engine (:mod:`repro.ale.vec`); this
view adds the gym-style protocol.
"""

from __future__ import annotations

import typing

import numpy as np

from repro.ale.vec.base import VecAtariGame
from repro.envs.base import Env


class AtariGame(Env):
    """A single-environment view of a ``B = 1`` :class:`VecAtariGame`."""

    def __init__(self, engine: VecAtariGame):
        # Env.__init__ is skipped: the generator is the engine's slot 0
        # (see :attr:`rng`), not a second stream.
        if engine.batch != 1:
            raise ValueError(f"AtariGame views a batch-1 engine, "
                             f"got batch {engine.batch}")
        self.engine = engine
        self.action_space = engine.action_space
        self.observation_space = engine.observation_space
        self._slot = np.zeros(1, dtype=np.intp)
        self._action = np.zeros(1, dtype=np.int64)

    @property
    def rng(self) -> np.random.Generator:
        """The game's generator (also drawn by sticky actions)."""
        return self.engine.rngs[0]

    def seed(self, seed: typing.Optional[int] = None) -> None:
        self.engine.seed([seed])

    def action_meanings(self) -> typing.Tuple[str, ...]:
        """The minimal action set of this game."""
        return self.engine.ACTION_MEANINGS

    def reset(self) -> np.ndarray:
        self.engine.reset_slots(self._slot)
        return self.screen.copy()

    def step(self, action: int):
        engine = self.engine
        if engine.game_over[0]:
            raise RuntimeError("step() called on a finished game; "
                               "call reset()")
        if not self.action_space.contains(action):
            raise ValueError(f"invalid action {action!r} for "
                             f"{type(engine).__name__}")
        self._action[0] = action
        rewards, dones = engine._advance(self._action, self._slot)
        info = {"lives": self.lives, "score": self.score}
        # A fresh frame, which the caller may keep past the next step.
        return self.screen.copy(), float(rewards[0]), bool(dones[0]), info

    @property
    def screen(self) -> np.ndarray:
        """The current ``(210, 160, 3)`` frame (a view into the engine)."""
        return self.engine.frames[0]

    @property
    def game_over(self) -> bool:
        """True once the episode has ended."""
        return bool(self.engine.game_over[0])

    @property
    def lives(self) -> int:
        """Remaining lives."""
        return int(self.engine.lives[0])

    @property
    def score(self) -> float:
        """Sum of this episode's rewards."""
        return float(self.engine.score[0])

    @property
    def frame(self) -> int:
        """Frames stepped in this episode."""
        return int(self.engine.frame[0])

    def __repr__(self) -> str:
        return f"<AtariGame {type(self.engine).__name__}>"
