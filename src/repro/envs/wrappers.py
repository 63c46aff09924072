"""DeepMind-style Atari preprocessing wrappers.

The stack assembled by :func:`make_atari_env` reproduces the preprocessing
of the original DQN/A3C papers, which the FA3C evaluation inherits:

* **MaxAndSkip** — repeat each action for 4 frames, observing the pixelwise
  max of the last two (de-flickers sprites drawn on alternating frames).
* **EpisodicLife** — treat a life loss as episode end for training.
* **AtariPreprocessing** — grayscale + bilinear resize to 84x84, [0, 1].
* **FrameStack** — stack the last 4 processed frames into ``(4, 84, 84)``,
  the Table 1 network input (28K features).
* **ClipReward** — clip rewards to the sign, as in the DQN/A3C training
  setup.
"""

from __future__ import annotations

import collections
import typing

import numpy as np

from repro.envs.base import Env, TimeLimit, Wrapper
from repro.envs.batched import BatchPreprocessor
from repro.envs.preprocessing import preprocess_frame
from repro.envs.spaces import Box


class MaxAndSkip(Wrapper):
    """Repeat the action ``skip`` frames; observe the max of the last two."""

    def __init__(self, env: Env, skip: int = 4):
        super().__init__(env)
        if skip < 1:
            raise ValueError(f"skip must be >= 1, got {skip}")
        self.skip = skip

    def step(self, action: int):
        total_reward = 0.0
        done = False
        info: dict = {}
        frames: typing.List[np.ndarray] = []
        for _ in range(self.skip):
            obs, reward, done, info = self.env.step(action)
            frames.append(obs)
            total_reward += reward
            if done:
                break
        if len(frames) >= 2:
            obs = np.maximum(frames[-1], frames[-2])
        else:
            obs = frames[-1]
        return obs, total_reward, done, info


class EpisodicLife(Wrapper):
    """End training episodes on life loss, but only truly reset when the
    underlying game is over.

    Requires the wrapped env to report the remaining lives via
    ``info["lives"]``.
    """

    def __init__(self, env: Env):
        super().__init__(env)
        self._lives = 0
        self._game_over = True

    def reset(self) -> np.ndarray:
        if self._game_over:
            obs = self.env.reset()
        else:
            # Life-loss pseudo-reset: keep playing the same game with a
            # no-op so training episodes stay short.
            obs, _, done, _ = self.env.step(0)
            if done:
                obs = self.env.reset()
        self._lives = self._current_lives()
        return obs

    def _current_lives(self) -> int:
        game = self.unwrapped
        return int(getattr(game, "lives", 0))

    def step(self, action: int):
        obs, reward, done, info = self.env.step(action)
        self._game_over = done
        lives = info.get("lives", self._current_lives())
        if 0 < lives < self._lives:
            done = True
            info = dict(info, life_lost=True)
        self._lives = lives
        return obs, reward, done, info


class AtariPreprocessing(Wrapper):
    """Grayscale + resize each frame to ``(height, width)`` in [0, 1]."""

    def __init__(self, env: Env, height: int = 84, width: int = 84):
        super().__init__(env)
        self.height = height
        self.width = width
        self.observation_space = Box(0.0, 1.0, (height, width))
        self._frame_shape: typing.Optional[typing.Tuple[int, ...]] = None
        self._batch: typing.Optional[BatchPreprocessor] = None

    def _process(self, frame: np.ndarray) -> np.ndarray:
        """An RGB frame goes through a :class:`BatchPreprocessor` built
        for its shape, so the resize's gather indices and weights are
        computed once, not per frame; any other frame goes through
        :func:`preprocess_frame`.  Both give the same bits."""
        if frame.ndim != 3 or frame.shape[-1] != 3:
            return preprocess_frame(frame, self.height, self.width)
        if frame.shape != self._frame_shape:
            self._frame_shape = frame.shape
            self._batch = BatchPreprocessor(frame.shape[0], frame.shape[1],
                                            self.height, self.width)
        return self._batch(frame[None])[0]

    def reset(self) -> np.ndarray:
        return self._process(self.env.reset())

    def step(self, action: int):
        obs, reward, done, info = self.env.step(action)
        return self._process(obs), reward, done, info


class FrameStack(Wrapper):
    """Stack the last ``count`` observations along a leading axis."""

    def __init__(self, env: Env, count: int = 4):
        super().__init__(env)
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        self.count = count
        base = env.observation_space
        self.observation_space = Box(base.low, base.high,
                                     (count,) + base.shape)
        self._frames: collections.deque = collections.deque(maxlen=count)

    def _stacked(self) -> np.ndarray:
        return np.stack(self._frames, axis=0)

    def reset(self) -> np.ndarray:
        obs = self.env.reset()
        self._frames.clear()
        for _ in range(self.count):
            self._frames.append(obs)
        return self._stacked()

    def step(self, action: int):
        obs, reward, done, info = self.env.step(action)
        self._frames.append(obs)
        return self._stacked(), reward, done, info


class ClipReward(Wrapper):
    """Clip rewards to their sign: {-1, 0, +1}."""

    def step(self, action: int):
        obs, reward, done, info = self.env.step(action)
        info = dict(info, raw_reward=reward)
        return obs, float(np.sign(reward)), done, info


def make_atari_env(env: Env, frame_skip: int = 4, stack: int = 4,
                   episodic_life: bool = True, clip_rewards: bool = True,
                   size: int = 84,
                   max_episode_steps: typing.Optional[int] = None) -> Env:
    """Assemble the standard DeepMind preprocessing stack around ``env``.

    The result produces ``(stack, size, size)`` float32 observations in
    [0, 1] — the input of the Table 1 network.
    """
    wrapped: Env = MaxAndSkip(env, skip=frame_skip)
    if episodic_life:
        wrapped = EpisodicLife(wrapped)
    wrapped = AtariPreprocessing(wrapped, height=size, width=size)
    wrapped = FrameStack(wrapped, count=stack)
    if clip_rewards:
        wrapped = ClipReward(wrapped)
    if max_episode_steps is not None:
        wrapped = TimeLimit(wrapped, max_episode_steps)
    return wrapped
