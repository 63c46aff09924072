"""An ALE-style interface over the simulated games.

The paper's host-side agents drive the Arcade Learning Environment through
its C++-ish API (``act``, ``game_over``, ``reset_game``, ``getScreenRGB``,
``lives``, ``getMinimalActionSet``).  :class:`SimulatedALE` exposes that
API over the from-scratch games so agent code written against ALE ports
directly.
"""

from __future__ import annotations

import typing

import numpy as np

from repro.ale.games import AtariGame, make_game
from repro.ale.vec.base import ALE_ACTIONS


class SimulatedALE:
    """Drop-in stand-in for ``ale_python_interface.ALEInterface``."""

    def __init__(self, game: typing.Union[str, AtariGame],
                 seed: typing.Optional[int] = None,
                 repeat_action_probability: float = 0.0):
        """``repeat_action_probability`` implements ALE's sticky actions
        (default off, matching the pre-2018 evaluation protocol the paper
        follows)."""
        self._game = make_game(game) if isinstance(game, str) else game
        if seed is not None:
            self._game.seed(seed)
        self.repeat_action_probability = repeat_action_probability
        self._last_screen: typing.Optional[np.ndarray] = None
        self._last_action = 0
        self.reset_game()

    def getMinimalActionSet(self) -> typing.List[int]:
        """ALE action *codes* of the game's minimal action set."""
        return [ALE_ACTIONS.index(m)
                for m in self._game.action_meanings()]

    def getLegalActionSet(self) -> typing.List[int]:
        """All 18 ALE action codes."""
        return list(range(len(ALE_ACTIONS)))

    def act(self, action_code: int) -> float:
        """Apply an ALE action code for one frame; returns the reward."""
        meanings = self._game.action_meanings()
        code_to_index = {ALE_ACTIONS.index(m): i
                         for i, m in enumerate(meanings)}
        index = code_to_index.get(int(action_code), 0)  # unknown -> NOOP
        if self.repeat_action_probability > 0 and \
                self._game.rng.random() < self.repeat_action_probability:
            index = self._last_action
        self._last_action = index
        screen, reward, _, _ = self._game.step(index)
        self._last_screen = screen
        return reward

    def game_over(self) -> bool:
        """True when the episode has ended."""
        return self._game.game_over

    def reset_game(self) -> None:
        """Start a new episode."""
        self._last_screen = self._game.reset()
        self._last_action = 0

    def lives(self) -> int:
        """Remaining lives."""
        return self._game.lives

    def getScreenRGB(self) -> np.ndarray:
        """The current ``(210, 160, 3)`` uint8 screen."""
        if self._last_screen is None:
            raise RuntimeError("no frame available; call reset_game()")
        return self._last_screen

    def getScreenGrayscale(self) -> np.ndarray:
        """Luminance screen, shape ``(210, 160)`` uint8."""
        from repro.envs.preprocessing import rgb_to_grayscale
        return rgb_to_grayscale(self.getScreenRGB()).astype(np.uint8)

    def getEpisodeFrameNumber(self) -> int:
        """Frame counter within the current episode."""
        return self._game.frame

    @property
    def game(self) -> AtariGame:
        """The underlying simulated game object."""
        return self._game
