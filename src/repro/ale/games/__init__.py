"""The six simulated Atari 2600 games used in the paper's evaluation, one
environment at a time."""

from __future__ import annotations

from repro.ale.games.base import AtariGame
from repro.ale.vec import make_vec_game


def make_game(name: str) -> AtariGame:
    """The game ``name`` (e.g. ``"breakout"``) as a single environment."""
    return AtariGame(make_vec_game(name, 1))


__all__ = ["AtariGame", "make_game"]
