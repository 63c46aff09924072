"""Environment substrate: spaces, base API, classic control, and the
DeepMind-style Atari preprocessing pipeline.

The API mirrors the familiar gym interface (``reset() -> obs``,
``step(a) -> (obs, reward, done, info)``) because the paper's software
baselines are built on gym + the Arcade Learning Environment; ALE itself is
simulated in :mod:`repro.ale`.  The Atari pipeline is written once, as
:class:`BatchedVectorEnv`; a single Atari environment
(:func:`make_atari_env`) is slot 0 of a one-slot ``BatchedVectorEnv``.
"""

from repro.envs.base import Env
from repro.envs.batched import (
    BatchedVectorEnv,
    BatchPreprocessor,
    make_atari_env,
)
from repro.envs.classic import CartPole, Catch, GridWorld, MemoryCue
from repro.envs.preprocessing import bilinear_resize, rgb_to_grayscale
from repro.envs.spaces import Box, Discrete
from repro.envs.vector import SyncVectorEnv, VectorStep

__all__ = [
    "BatchPreprocessor",
    "BatchedVectorEnv",
    "Box",
    "CartPole",
    "Catch",
    "Discrete",
    "Env",
    "GridWorld",
    "MemoryCue",
    "SyncVectorEnv",
    "VectorStep",
    "bilinear_resize",
    "make_atari_env",
    "rgb_to_grayscale",
]
