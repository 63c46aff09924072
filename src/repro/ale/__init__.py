"""Simulated Arcade Learning Environment (ALE).

The paper evaluates on six Atari 2600 games via the Arcade Learning
Environment.  Atari ROMs are proprietary and ALE cannot be installed in this
offline environment, so this package provides six from-scratch games with
pixel rendering (210x160 RGB like a real Atari screen), per-game dynamics,
lives, and score-shaped rewards.  The games are implemented once, as a
batched structure-of-arrays engine (:mod:`repro.ale.vec`, CuLE-style),
behind three interfaces: the engine itself for ``B`` lockstep copies, a
gym-style single environment (:class:`~repro.ale.games.base.AtariGame`,
an :class:`~repro.envs.Env` viewing slot 0 of a ``B = 1`` engine) and an
ALE-style C++-ish interface (:class:`~repro.ale.interface.SimulatedALE`).

The games exercise exactly the code path the paper's agents run: raw pixels
-> DeepMind preprocessing -> 4x84x84 stack -> Table 1 network -> discrete
action -> clipped reward, and are genuinely learnable by A3C.
"""

from repro.ale.games import make_game
from repro.ale.interface import SimulatedALE
from repro.ale.vec import GAME_NAMES

__all__ = ["GAME_NAMES", "SimulatedALE", "make_game"]
