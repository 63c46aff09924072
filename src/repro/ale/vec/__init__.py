"""The six games as one structure-of-arrays engine (CuLE-style).

One :class:`~repro.ale.vec.base.VecAtariGame` holds ``B`` environments
of the same game in ``(B, ...)`` state arrays and advances all of them
per :meth:`step`, rendering into a shared ``(B, 210, 160, 3)`` frame
buffer.  This is the only implementation of the games: a single
environment (:func:`repro.ale.make_game`) is slot 0 of a ``B = 1``
engine, and ``tests/test_ale_golden.py`` pins every game's trace by
digest.
"""

from __future__ import annotations

import typing

from repro.ale.vec.base import BatchScreen, VecAtariGame
from repro.ale.vec.beam_rider import VecBeamRider
from repro.ale.vec.breakout import VecBreakout
from repro.ale.vec.pong import VecPong
from repro.ale.vec.qbert import VecQbert
from repro.ale.vec.seaquest import VecSeaquest
from repro.ale.vec.space_invaders import VecSpaceInvaders

_REGISTRY: typing.Dict[str, typing.Type[VecAtariGame]] = {
    "beam_rider": VecBeamRider,
    "breakout": VecBreakout,
    "pong": VecPong,
    "qbert": VecQbert,
    "seaquest": VecSeaquest,
    "space_invaders": VecSpaceInvaders,
}

#: The paper's six games, in the order of Figure 12.
GAME_NAMES = tuple(_REGISTRY)


def make_vec_game(name: str, batch: int) -> VecAtariGame:
    """Instantiate a batched game by its registry name."""
    key = name.lower().replace("-", "_").replace(" ", "_")
    if key not in _REGISTRY:
        raise KeyError(f"unknown game {name!r}; available: "
                       f"{sorted(_REGISTRY)}")
    return _REGISTRY[key](batch)


__all__ = [
    "BatchScreen",
    "GAME_NAMES",
    "VecAtariGame",
    "VecBeamRider",
    "VecBreakout",
    "VecPong",
    "VecQbert",
    "VecSeaquest",
    "VecSpaceInvaders",
    "make_vec_game",
]
