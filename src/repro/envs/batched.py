"""The DeepMind Atari preprocessing pipeline over the structure-of-arrays
engine.

:class:`BatchedVectorEnv` runs ``N`` copies of one game through the
host pipeline of the DQN/A3C papers, which the FA3C evaluation
inherits, with batched NumPy:

* repeat each action for :data:`FRAME_SKIP` frames and observe the
  pixelwise max of the last two (de-flickers sprites drawn on
  alternating frames); a slot whose game ends mid-cycle stops there,
  and only the frames the max can read are rendered;
* end a training episode at a life loss, but reset the game only once
  it is over: the new episode of a game that goes on starts with one
  NOOP cycle;
* grayscale and bilinear resize to :data:`SIZE` x :data:`SIZE`, in
  [0, 1];
* stack the last :data:`STACK` frames, the Table 1 network input;
* clip rewards to their sign (``info["raw_reward"]`` keeps the sum);
* end an episode, and its game, after ``max_episode_steps`` steps, if
  set.

A single environment (:func:`make_atari_env`) is slot 0 of a one-slot
``BatchedVectorEnv``, as a single game is slot 0 of a ``B = 1`` engine.
``tests/test_envs_golden.py`` pins both by digest.
"""

from __future__ import annotations

import typing

import numpy as np

from repro.envs.base import Env
from repro.envs.preprocessing import _LUMA
from repro.envs.spaces import Box
from repro.envs.vector import VectorStep
from repro.perf.hotpath import hot_path

#: Frames each action is repeated for.
FRAME_SKIP = 4
#: Processed frames per observation.
STACK = 4
#: Side of a processed frame.
SIZE = 84


class BatchPreprocessor:
    """Batched grayscale + bilinear resize + [0, 1] scaling.

    Bit-identical per slot to
    :func:`repro.envs.preprocessing.preprocess_frame`: the gather indices
    and float32 weights are precomputed once, and the multiply/add order
    matches :func:`~repro.envs.preprocessing.bilinear_resize` exactly.
    """

    def __init__(self, in_height: int, in_width: int,
                 out_height: int, out_width: int):
        self.out_shape = (out_height, out_width)
        row_pos = (np.arange(out_height) + 0.5) * (in_height / out_height) \
            - 0.5
        col_pos = (np.arange(out_width) + 0.5) * (in_width / out_width) \
            - 0.5
        row_pos = np.clip(row_pos, 0, in_height - 1)
        col_pos = np.clip(col_pos, 0, in_width - 1)
        r0 = np.floor(row_pos).astype(np.intp)
        c0 = np.floor(col_pos).astype(np.intp)
        self._r0 = r0
        self._c0 = c0
        self._r1 = np.minimum(r0 + 1, in_height - 1)
        self._c1 = np.minimum(c0 + 1, in_width - 1)
        wr = (row_pos - r0).astype(np.float32)
        wc = (col_pos - c0).astype(np.float32)
        self._wr = wr[None, :, None]
        self._wc = wc[None, None, :]
        self._omwr = 1 - self._wr
        self._omwc = 1 - self._wc

    @hot_path
    def __call__(self, frames: np.ndarray) -> np.ndarray:
        """Process ``(N, H, W, 3)`` uint8 frames to ``(N, out_h, out_w)``
        float32 in [0, 1]."""
        gray = frames.astype(np.float32) @ _LUMA
        g0 = gray[:, self._r0]
        g1 = gray[:, self._r1]
        top = g0[:, :, self._c0] * self._omwc + g0[:, :, self._c1] * self._wc
        bottom = g1[:, :, self._c0] * self._omwc + \
            g1[:, :, self._c1] * self._wc
        return (top * self._omwr + bottom * self._wr) / 255.0


class BatchedVectorEnv:
    """N copies of one Atari game stepped as a single batch.

    Drop-in for :class:`~repro.envs.vector.SyncVectorEnv` (same
    ``reset``/``step``/``observations`` protocol and
    :class:`~repro.envs.vector.VectorStep` results), built on
    :func:`repro.ale.vec.make_vec_game` or on a prebuilt engine.  Per
    slot it equals a ``SyncVectorEnv`` of :func:`make_atari_env` envs
    under the same seed and actions.
    """

    def __init__(self, game: typing.Union[str, "VecAtariGame"],
                 num_envs: typing.Optional[int] = None,
                 seed: typing.Optional[int] = None,
                 max_episode_steps: typing.Optional[int] = None):
        # Imported here: repro.ale builds on repro.envs, so a module-level
        # import would be circular.
        from repro.ale.vec import make_vec_game
        from repro.ale.vec.base import VecAtariGame
        if isinstance(game, VecAtariGame):
            if num_envs is not None and num_envs != game.batch:
                raise ValueError(f"num_envs is {num_envs} but the engine "
                                 f"has {game.batch} slots")
            engine = game
        elif num_envs is None:
            raise ValueError("num_envs is required when game is a name")
        else:
            engine = make_vec_game(game, num_envs)
        if max_episode_steps is not None and max_episode_steps < 1:
            raise ValueError(f"max_steps must be >= 1, "
                             f"got {max_episode_steps}")
        self.engine = engine
        self.num_envs = batch = engine.batch
        self.max_episode_steps = max_episode_steps
        self.action_space = engine.action_space
        self.observation_space = Box(0.0, 1.0, (STACK, SIZE, SIZE))
        if seed is not None:
            # Lazy for the same layering reason as SyncVectorEnv: the
            # contract lives with the backend protocol.
            from repro.backends.protocol import derive_agent_seed
            engine.seed([derive_agent_seed(seed, index)
                         for index in range(batch)])

        height, width = engine.screen.height, engine.screen.width
        self._pre = BatchPreprocessor(height, width, SIZE, SIZE)
        self._prev = np.zeros((batch, height, width, 3), dtype=np.uint8)
        self._raw = np.zeros_like(self._prev)
        self._lives = np.zeros(batch, dtype=np.int64)
        # Did each slot's last cycle end its game?  A fresh env has no
        # game to go on with.
        self._game_over = np.ones(batch, dtype=bool)
        self._elapsed = np.zeros(batch, dtype=np.int64)
        self._scores = np.zeros(batch)
        self._observations: typing.Optional[np.ndarray] = None
        self._all = np.arange(batch, dtype=np.intp)

    # -- internals ---------------------------------------------------------

    def _new_stacks(self) -> np.ndarray:
        return np.empty((self.num_envs, STACK, SIZE, SIZE),
                        dtype=np.float32)

    @hot_path
    def _skip_slots(self, slots: np.ndarray,
                    actions: np.ndarray) -> typing.Tuple[np.ndarray,
                                                         np.ndarray]:
        """One frame-skip cycle for ``slots`` under checked ``actions``;
        the de-flickered frames land in ``self._raw[slots]``.  Returns
        (total_rewards, game_overs).

        Only frames an observation can read are rendered: every live
        slot's last two sub-frames, and before those a slot's sub-frame
        only where its game ended or may end at the next one
        (:meth:`~repro.ale.vec.base.VecAtariGame.may_end`).  The frame a
        slot ends on and the one before it are thus always drawn, and a
        slot that lives through the cycle leaves it drawn.
        """
        engine = self.engine
        batch = self.num_envs
        rewards = np.zeros(slots.size)
        dones = np.zeros(slots.size, dtype=bool)
        seen = np.zeros(slots.size, dtype=np.int64)
        alive = np.ones(slots.size, dtype=bool)
        # Live slots whose previous sub-frame was rendered: the frames
        # to keep in ``_prev`` before they step again.  ``slots`` never
        # repeats a slot, so ``batch`` of them are every slot: whole
        # frames then move as slices, not as gathers.
        drawn = slots[:0]
        for sub in range(FRAME_SKIP):
            idx = np.nonzero(alive)[0]
            if idx.size == 0:
                break
            current = slots[idx]
            if drawn.size == batch:
                np.copyto(self._prev, engine.frames)
            elif drawn.size:
                self._prev[drawn] = engine.frames[drawn]
            sub_rewards, sub_dones = engine._advance(actions[idx], current,
                                                     render=False)
            rewards[idx] += sub_rewards
            seen[idx] += 1
            dones[idx] = sub_dones
            alive[idx] = ~sub_dones
            if sub >= FRAME_SKIP - 2:
                engine.render_slots(current)
                drawn = current[~sub_dones]
            else:
                show = sub_dones | engine.may_end(current)
                engine.render_slots(current[show])
                drawn = current[show & ~sub_dones]
        two = seen >= 2
        pair = slots[two]
        if pair.size == batch:
            np.maximum(engine.frames, self._prev, out=self._raw)
        elif pair.size:
            self._raw[pair] = np.maximum(engine.frames[pair],
                                         self._prev[pair])
        single = slots[~two]
        if single.size:
            self._raw[single] = engine.frames[single]
        return rewards, dones

    @hot_path
    def _advance(self, actions: np.ndarray
                 ) -> typing.Tuple[np.ndarray, np.ndarray, typing.List[dict],
                                   np.ndarray]:
        """One frame-skip cycle of every slot.

        Returns the unclipped rewards, the dones, the per-slot infos and
        new stacks in which every slot shifts and appends its newest
        frame, so a done slot's stack ends with its terminal frame.
        """
        old_obs = self.observations
        engine = self.engine
        rewards, game_over = self._skip_slots(self._all, actions)
        lives = engine.lives.copy()
        life_lost = ~game_over & (lives > 0) & (lives < self._lives)
        dones = game_over | life_lost
        self._lives = lives
        truncated = np.zeros(self.num_envs, dtype=bool)
        if self.max_episode_steps is not None:
            self._elapsed += 1
            truncated = (self._elapsed >= self.max_episode_steps) & ~dones
            dones |= truncated
        # A capped episode ends its game: the restart resets it.
        self._game_over = game_over | truncated

        scores = engine.score
        infos: typing.List[dict] = []
        for index in range(self.num_envs):
            info = {"lives": int(lives[index]),
                    "score": float(scores[index])}
            if life_lost[index]:
                info["life_lost"] = True
            info["raw_reward"] = float(rewards[index])
            if truncated[index]:
                info["truncated"] = True
            infos.append(info)

        obs = self._new_stacks()
        obs[:, :-1] = old_obs[:, 1:]
        obs[:, -1] = self._pre(self._raw)
        return rewards, dones, infos, obs

    def _restart(self, slots: np.ndarray, obs: np.ndarray) -> None:
        """Start a new episode in ``slots``, each stack in ``obs`` filled
        with its first frame.

        A slot whose game goes on (its episode ended at a life loss)
        plays one NOOP cycle; a slot whose game is over or was cut at
        ``max_episode_steps``, or ends in that cycle, resets its game.
        """
        engine = self.engine
        self._elapsed[slots] = 0
        fresh = self._game_over[slots]
        going = slots[~fresh]
        if going.size:
            _, ended = self._skip_slots(
                going, np.zeros(going.size, dtype=np.int64))
            kept = going[~ended]
            if kept.size:
                obs[kept] = self._pre(self._raw[kept])[:, None]
            fresh[~fresh] = ended
        reset = slots[fresh]
        if reset.size:
            engine.reset_slots(reset)
            obs[reset] = self._pre(engine.frames[reset])[:, None]
        self._lives[slots] = engine.lives[slots]

    # -- SyncVectorEnv protocol --------------------------------------------

    def reset(self) -> np.ndarray:
        """Reset every slot; returns stacked observations."""
        self._scores[:] = 0.0
        obs = self._new_stacks()
        self._restart(self._all, obs)
        self._observations = obs
        return obs

    @property
    def observations(self) -> np.ndarray:
        """The latest stacked observations."""
        if self._observations is None:
            raise RuntimeError("reset() the vector env first")
        return self._observations

    @hot_path
    def step(self, actions: typing.Sequence[int]) -> VectorStep:
        """Step every slot; finished slots auto-reset.

        ``actions`` must be integers in the action space; floats and
        strings raise ``ValueError`` rather than being truncated.  They
        are checked here once, not at every sub-frame.
        """
        if len(actions) != self.num_envs:
            raise ValueError(f"expected {self.num_envs} actions, "
                             f"got {len(actions)}")
        actions = np.asarray(actions)
        if actions.dtype.kind not in "iu":
            raise ValueError(f"actions must be integers, got dtype "
                             f"{actions.dtype}")
        engine = self.engine
        if ((actions < 0) | (actions >= engine.action_space.n)).any():
            raise ValueError(f"invalid action for "
                             f"{type(engine).__name__}")
        if engine.game_over.any():
            raise RuntimeError("step() called on a finished slot; "
                               "reset() the vector env first")
        rewards, dones, infos, obs = self._advance(
            actions.astype(np.int64, copy=False))
        self._scores += rewards
        finished: typing.List[typing.Tuple[int, float]] = []
        done_idx = np.nonzero(dones)[0]
        for index in done_idx:
            if not infos[index].get("life_lost"):
                finished.append((int(index), float(self._scores[index])))
                self._scores[index] = 0.0
        if done_idx.size:
            self._restart(done_idx, obs)
        self._observations = obs
        return VectorStep(observations=obs,
                          rewards=np.sign(rewards).astype(np.float32),
                          dones=dones, infos=infos,
                          finished_scores=finished)

    def close(self) -> None:
        close = getattr(self.engine, "close", None)
        if close is not None:
            close()


class AtariEnv(Env):
    """One game through the pipeline: slot 0 of a one-slot
    :class:`BatchedVectorEnv`.

    :meth:`step` is the vector env's advance alone, so at ``done`` it
    returns the terminal stack and leaves the restart to :meth:`reset`,
    which is the vector env's reset.
    """

    def __init__(self, vec: BatchedVectorEnv):
        # Env.__init__ is skipped: the generator is the engine's slot 0.
        self.vec = vec
        self.action_space = vec.action_space
        self.observation_space = vec.observation_space
        self._action = np.zeros(1, dtype=np.int64)

    def seed(self, seed: typing.Optional[int] = None) -> None:
        self.vec.engine.seed([seed])

    def reset(self) -> np.ndarray:
        return self.vec.reset()[0]

    def step(self, action: int):
        vec = self.vec
        if vec.engine.game_over[0]:
            raise RuntimeError("step() called on a finished game; "
                               "call reset()")
        if not self.action_space.contains(action):
            raise ValueError(f"invalid action {action!r} for "
                             f"{type(vec.engine).__name__}")
        self._action[0] = action
        rewards, dones, infos, obs = vec._advance(self._action)
        vec._observations = obs
        return obs[0], float(np.sign(rewards[0])), bool(dones[0]), infos[0]

    def __repr__(self) -> str:
        return f"<AtariEnv {type(self.vec.engine).__name__}>"


def make_atari_env(game: Env,
                   max_episode_steps: typing.Optional[int] = None
                   ) -> AtariEnv:
    """The pipeline around ``game``, a :func:`repro.ale.make_game` env:
    ``(4, 84, 84)`` float32 observations in [0, 1], the input of the
    Table 1 network."""
    from repro.ale.games.base import AtariGame
    if not isinstance(game, AtariGame):
        raise TypeError(f"make_atari_env takes a repro.ale.make_game env, "
                        f"got {type(game).__name__}")
    return AtariEnv(BatchedVectorEnv(game.engine,
                                     max_episode_steps=max_episode_steps))
