"""The structure-of-arrays Atari engine: the one implementation of the
six games.

Each game's state lives in ``(B, ...)`` arrays and one :meth:`step`
advances all ``B`` environments together: elementwise dynamics run as
vectorized NumPy over the batch axis, and every slot renders into one
preallocated ``(B, 210, 160, 3)`` frame buffer instead of allocating a
fresh frame per env per step.  A single environment is slot 0 of a
``B = 1`` engine (:class:`repro.ale.games.base.AtariGame`).

Slot independence
-----------------

A slot's trace depends only on its seed and its own actions — never on
the batch width or on which other slots step alongside it:

* every slot owns an independent ``np.random.Generator``, and draws are
  made only for the slots (and in the per-slot order) that need them;
* elementwise float64 arithmetic (``+ - * /``, ``np.clip``, ``abs``) is
  IEEE-identical whether applied to a scalar or an array lane, so bulk
  dynamics vectorize without changing a single bit;
* operations whose reduction order could depend on the batch (e.g.
  ``np.linalg.norm``) and rare discrete events (serves, launches, enemy
  hops) run per affected slot;
* rendering draws the same pixels per slot whatever the batch; what
  the listed slots share is stamped across them in one masked write,
  or drawn once and copied in.

``tests/test_ale_golden.py`` pins every game's trace by digest, at
``B = 1`` and under random sub-batch stepping.
"""

from __future__ import annotations

import typing

import numpy as np

from repro.envs.spaces import Box, Discrete
from repro.perf.hotpath import hot_path

SCREEN_HEIGHT = 210
SCREEN_WIDTH = 160

# The canonical ALE action meanings, in ALE order.
ALE_ACTIONS = (
    "NOOP", "FIRE", "UP", "RIGHT", "LEFT", "DOWN",
    "UPRIGHT", "UPLEFT", "DOWNRIGHT", "DOWNLEFT",
    "UPFIRE", "RIGHTFIRE", "LEFTFIRE", "DOWNFIRE",
    "UPRIGHTFIRE", "UPLEFTFIRE", "DOWNRIGHTFIRE", "DOWNLEFTFIRE",
)


def decode_move(meaning: str) -> typing.Tuple[int, int, bool]:
    """Decode an ALE action meaning to (dx, dy, fire).

    ``dx``/``dy`` are in {-1, 0, 1}; positive x is rightward, positive
    y is downward (screen coordinates).
    """
    fire = "FIRE" in meaning
    dx = (1 if "RIGHT" in meaning else 0) - (1 if "LEFT" in meaning else 0)
    dy = (1 if "DOWN" in meaning else 0) - (1 if "UP" in meaning else 0)
    return dx, dy, fire


class BatchScreen:
    """A shared ``(B, H, W, 3)`` frame buffer with per-slot drawing.

    :meth:`fill_rect` draws into one slot; :meth:`fill_rect_slots`
    stamps one batch-constant rectangle into many slots with a single
    masked write.  Both round and clip the rectangle identically.
    """

    def __init__(self, batch: int, height: int = SCREEN_HEIGHT,
                 width: int = SCREEN_WIDTH):
        self.batch = batch
        self.height = height
        self.width = width
        self.pixels = np.zeros((batch, height, width, 3), dtype=np.uint8)
        # Full-frame fills per colour: copying a prebuilt (H, W, 3)
        # frame is ~40x faster than broadcasting an RGB tuple into the
        # batch buffer (contiguous block copy vs strided pattern fill).
        self._clear_frames: typing.Dict[typing.Tuple[int, int, int],
                                        np.ndarray] = {}

    def _clipped(self, top: float, left: float, height: float,
                 width: float) -> typing.Tuple[int, int, int, int]:
        t = min(max(int(round(top)), 0), self.height)
        l = min(max(int(round(left)), 0), self.width)
        b = min(max(int(round(top + height)), 0), self.height)
        r = min(max(int(round(left + width)), 0), self.width)
        return t, l, b, r

    def clear_slots(self, slots: np.ndarray,
                    color: typing.Tuple[int, int, int]) -> None:
        """Fill the whole frame of every listed slot with one colour."""
        frame = self._clear_frames.get(color)
        if frame is None:
            frame = np.empty((self.height, self.width, 3), dtype=np.uint8)
            frame[:] = color
            self._clear_frames[color] = frame
        self.copy_slots(slots, frame)

    def copy_slots(self, slots: np.ndarray, frame: np.ndarray) -> None:
        """Copy one ``(H, W, 3)`` frame into every listed slot."""
        if slots.size == self.batch:
            self.pixels[:] = frame
        else:
            self.pixels[slots] = frame

    def fill_rect(self, slot: int, top: float, left: float, height: float,
                  width: float, color: typing.Tuple[int, int, int]) -> None:
        """Fill a rectangle in one slot, clipped to the frame."""
        t, l, b, r = self._clipped(top, left, height, width)
        if b > t and r > l:
            self.pixels[slot, t:b, l:r] = color

    def fill_rect_slots(self, slots: np.ndarray, top: float, left: float,
                        height: float, width: float,
                        color: typing.Tuple[int, int, int]) -> None:
        """Fill the same rectangle in every listed slot at once."""
        t, l, b, r = self._clipped(top, left, height, width)
        if b > t and r > l:
            if slots.size == self.batch:
                self.pixels[:, t:b, l:r] = color
            else:
                self.pixels[slots, t:b, l:r] = color


class VecAtariGame:
    """Base class for the batched games.

    Subclasses set the game's :attr:`ACTION_MEANINGS`, lives, frame
    limit and tunables, and implement :meth:`_alloc`,
    :meth:`_reset_slots`, :meth:`_step_slots` and :meth:`_render_slots`,
    all operating on ``(B,)``-leading arrays.  Tunables are read through
    ``self``, so an instance may override one.

    Unlike :class:`~repro.envs.base.Env`, stepping takes an optional
    ``slots`` index array so callers (the batched frame-skip loop) can
    advance a sub-batch while other slots sit on a finished frame.
    """

    #: Minimal action set (subset of :data:`ALE_ACTIONS`).
    ACTION_MEANINGS: typing.Tuple[str, ...] = ("NOOP",)
    #: Number of lives at game start.
    START_LIVES = 1
    #: Hard frame limit per episode (guards against degenerate policies).
    MAX_FRAMES = 20_000

    def __init__(self, batch: int):
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        meanings = self.ACTION_MEANINGS
        for meaning in meanings:
            if meaning not in ALE_ACTIONS:
                raise ValueError(f"unknown action meaning {meaning!r}")
        self.batch = batch
        self.action_space = Discrete(len(meanings))
        self.observation_space = Box(0, 255,
                                     (SCREEN_HEIGHT, SCREEN_WIDTH, 3),
                                     dtype=np.uint8)
        self.screen = BatchScreen(batch)
        self.lives = np.zeros(batch, dtype=np.int64)
        self.score = np.zeros(batch)
        self.frame = np.zeros(batch, dtype=np.int64)
        self.game_over = np.ones(batch, dtype=bool)
        self.rngs = [np.random.default_rng() for _ in range(batch)]
        # Per-action lookup tables for vectorized decode_move.
        decoded = [decode_move(m) for m in meanings]
        self._act_dx = np.array([d[0] for d in decoded], dtype=np.int64)
        self._act_dy = np.array([d[1] for d in decoded], dtype=np.int64)
        self._act_fire = np.array([d[2] for d in decoded], dtype=bool)
        self._act_right = np.array(["RIGHT" in m for m in meanings],
                                   dtype=bool)
        self._act_left = np.array(["LEFT" in m for m in meanings],
                                  dtype=bool)
        self._all_slots = np.arange(batch, dtype=np.intp)
        self._alloc(batch)

    # -- subclass hooks ---------------------------------------------------

    def _alloc(self, batch: int) -> None:
        """Allocate the game's ``(B, ...)`` state arrays."""
        raise NotImplementedError

    def _reset_slots(self, slots: np.ndarray) -> None:
        """Initialise game state for a new episode in the listed slots."""
        raise NotImplementedError

    def _step_slots(self, slots: np.ndarray,
                    actions: np.ndarray) -> np.ndarray:
        """Advance the listed slots one frame; return per-slot rewards."""
        raise NotImplementedError

    def _render_slots(self, slots: np.ndarray) -> None:
        """Draw the listed slots into :attr:`screen`."""
        raise NotImplementedError

    # -- batched protocol --------------------------------------------------

    def seed(self, seeds: typing.Sequence[typing.Optional[int]]) -> None:
        """Seed every slot's generator (one seed per slot; ``None`` draws
        fresh entropy)."""
        if len(seeds) != self.batch:
            raise ValueError(f"expected {self.batch} seeds, "
                             f"got {len(seeds)}")
        self.rngs = [np.random.default_rng(s) for s in seeds]

    def reset(self) -> np.ndarray:
        """Reset every slot; returns a view of the shared frame buffer."""
        self.reset_slots(self._all_slots)
        return self.screen.pixels

    def reset_slots(self, slots: np.ndarray) -> None:
        """Start a new episode in the listed slots only."""
        slots = np.asarray(slots, dtype=np.intp)
        self.lives[slots] = self.START_LIVES
        self.score[slots] = 0.0
        self.frame[slots] = 0
        self.game_over[slots] = False
        self._reset_slots(slots)
        self._render_slots(slots)

    @hot_path
    def step(self, actions: typing.Sequence[int],
             slots: typing.Optional[np.ndarray] = None
             ) -> typing.Tuple[np.ndarray, np.ndarray]:
        """Advance the listed slots (default: all) one frame each.

        ``actions`` must be integers.  Returns ``(rewards, dones)``
        aligned with ``slots``.  Finished slots must be
        :meth:`reset_slots` before they are stepped again.
        """
        if slots is None:
            slots = self._all_slots
        else:
            slots = np.asarray(slots, dtype=np.intp)
        if self.game_over[slots].any():
            raise RuntimeError("step() called on a finished slot; "
                               "call reset_slots()")
        actions = np.asarray(actions)
        if actions.dtype.kind not in "iu":
            raise ValueError(f"actions must be integers, got dtype "
                             f"{actions.dtype}")
        if actions.shape != (slots.size,):
            raise ValueError(f"expected {slots.size} actions, "
                             f"got shape {actions.shape}")
        if ((actions < 0) | (actions >= self.action_space.n)).any():
            raise ValueError(f"invalid action for "
                             f"{type(self).__name__}")
        return self._advance(actions, slots)

    @hot_path
    def _advance(self, actions: np.ndarray, slots: np.ndarray
                 ) -> typing.Tuple[np.ndarray, np.ndarray]:
        """One frame for ``slots`` under already-checked ``actions``.

        The core that :meth:`step` and
        :meth:`repro.ale.games.base.AtariGame.step` share after their
        own argument checks.
        """
        rewards = self._step_slots(slots, actions)
        self.frame[slots] += 1
        self.score[slots] += rewards
        dones = (self.lives[slots] <= 0) | \
            (self.frame[slots] >= self.MAX_FRAMES)
        self.game_over[slots] = dones
        self._render_slots(slots)
        return rewards, dones

    @property
    def frames(self) -> np.ndarray:
        """The shared ``(B, 210, 160, 3)`` uint8 frame buffer (a view)."""
        return self.screen.pixels
