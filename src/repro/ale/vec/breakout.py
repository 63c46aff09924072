"""Breakout.

Six rows of bricks (scores 7/7/4/4/1/1 from top to bottom, as on the real
cartridge), a paddle, a ball served by FIRE, and five lives.  The minimal
action set is the real ALE Breakout set: NOOP, FIRE, RIGHT, LEFT.

Brick hits resolve with fancy indexing over the ``(B, 6, 18)`` brick
array; launches (an RNG draw) and paddle bounces (``np.linalg.norm``,
whose reduction order must not depend on the batch) run per affected
slot.

Each slot has a layer: the backdrop plus that slot's bricks and life
icons as last drawn.  A frame repaints in the layer only the bricks and
icons whose state differs from what it holds (a hit, a wall clear, a
lost life, a reset), copies the layer into the screen and draws the
paddle and ball on top: one copy and two rectangles instead of ~110.
The comparison is against ``bricks`` and ``lives`` at render time, so
the frame is a function of the state however the state changed.
"""

from __future__ import annotations

import numpy as np

from repro.ale.vec.base import (
    SCREEN_HEIGHT,
    SCREEN_WIDTH,
    BatchScreen,
    VecAtariGame,
)
from repro.perf.hotpath import hot_path

_BG = (0, 0, 0)
_WALL = (142, 142, 142)
_PADDLE = (200, 72, 72)
_BALL = (200, 72, 72)
_ROW_COLORS = ((200, 72, 72), (198, 108, 58), (180, 122, 48),
               (162, 162, 42), (72, 160, 72), (66, 72, 200))
_ROW_SCORES = (7, 7, 4, 4, 1, 1)

_N_ROWS = 6
_N_COLS = 18
_BRICK_TOP = 57
_BRICK_H = 6
_WALL_W = 8
_BRICK_W = (SCREEN_WIDTH - 2 * _WALL_W) / _N_COLS
_PADDLE_Y = 189.0
_PADDLE_W = 16.0
_PADDLE_H = 4.0
_BALL_SIZE = 3.0
_COURT_TOP = 32

# (top, left, height, width) of what the layer holds: the top wall and
# the two side walls, the bricks, and the life icons.
_WALL_RECTS = ((_COURT_TOP - 6, 0, 6, SCREEN_WIDTH),
               (_COURT_TOP, 0, SCREEN_HEIGHT, _WALL_W),
               (_COURT_TOP, SCREEN_WIDTH - _WALL_W, SCREEN_HEIGHT, _WALL_W))


def _brick_rect(row: int, col: int) -> tuple:
    return (_BRICK_TOP + row * _BRICK_H, _WALL_W + col * _BRICK_W,
            _BRICK_H - 1, _BRICK_W - 1)


def _icon_rect(icon: int) -> tuple:
    return (10, 10 + 8 * icon, 5, 5)


class VecBreakout(VecAtariGame):
    """Brick-breaking with five lives and row-dependent scores."""

    ACTION_MEANINGS = ("NOOP", "FIRE", "RIGHT", "LEFT")
    START_LIVES = 5
    MAX_FRAMES = 40_000

    PADDLE_SPEED = 4.0
    BALL_SPEED = 2.2

    def _alloc(self, batch: int) -> None:
        self.paddle_x = np.zeros(batch)
        self.ball = np.zeros((batch, 2))
        self.ball_vel = np.zeros((batch, 2))
        self.bricks = np.ones((batch, _N_ROWS, _N_COLS), dtype=bool)
        self.ball_in_play = np.zeros(batch, dtype=bool)
        self.clears = np.zeros(batch, dtype=np.int64)
        self._row_scores = np.array(_ROW_SCORES, dtype=np.float64)
        # Each slot's layer starts as the backdrop; _drawn_bricks and
        # _drawn_lives record what _render_slots has drawn in it since.
        layer = BatchScreen(batch)
        every = np.arange(batch, dtype=np.intp)
        layer.clear_slots(every, _BG)
        for rect in _WALL_RECTS:
            layer.fill_rect_slots(every, *rect, _WALL)
        self._layer = layer
        self._drawn_bricks = np.zeros((batch, _N_ROWS, _N_COLS), dtype=bool)
        self._drawn_lives = np.zeros(batch, dtype=np.int64)

    def _reset_slots(self, slots: np.ndarray) -> None:
        self.paddle_x[slots] = SCREEN_WIDTH / 2 - _PADDLE_W / 2
        self.bricks[slots] = True
        self.ball_in_play[slots] = False
        self.clears[slots] = 0

    def _launch_slot(self, k: int) -> None:
        self.ball[k, 0] = self.paddle_x[k] + _PADDLE_W / 2
        self.ball[k, 1] = _PADDLE_Y - _BALL_SIZE - 1
        angle = self.rngs[k].uniform(np.pi * 0.25, np.pi * 0.75)
        self.ball_vel[k, 0] = np.cos(angle) * self.BALL_SPEED
        self.ball_vel[k, 1] = -np.sin(angle) * self.BALL_SPEED
        self.ball_in_play[k] = True

    @hot_path
    def _step_slots(self, slots: np.ndarray,
                    actions: np.ndarray) -> np.ndarray:
        s = slots
        right = self._act_right[actions]
        left = self._act_left[actions] & ~right
        px = self.paddle_x[s]
        px[right] += self.PADDLE_SPEED
        px[left] -= self.PADDLE_SPEED
        px = np.clip(px, _WALL_W, SCREEN_WIDTH - _WALL_W - _PADDLE_W)
        self.paddle_x[s] = px

        rewards = np.zeros(s.size)
        act = self.ball_in_play[s]
        launch = ~act & self._act_fire[actions]
        if launch.any():
            for k in s[launch]:
                self._launch_slot(int(k))
        if not act.any():
            return rewards

        ball = self.ball[s]
        vel = self.ball_vel[s]
        ball[act] += vel[act]
        bx = ball[:, 0]
        by = ball[:, 1]

        # Side walls and ceiling.
        m_l = act & (bx <= _WALL_W)
        ball[m_l, 0] = _WALL_W
        vel[m_l, 0] = np.abs(vel[m_l, 0])
        m_r = act & ~m_l & (bx >= SCREEN_WIDTH - _WALL_W - _BALL_SIZE)
        ball[m_r, 0] = SCREEN_WIDTH - _WALL_W - _BALL_SIZE
        vel[m_r, 0] = -np.abs(vel[m_r, 0])
        m_t = act & (by <= _COURT_TOP)
        ball[m_t, 1] = _COURT_TOP
        vel[m_t, 1] = np.abs(vel[m_t, 1])

        # Bricks.
        in_band = act & (by >= _BRICK_TOP) & \
            (by < _BRICK_TOP + _N_ROWS * _BRICK_H)
        if in_band.any():
            bricks = self.bricks[s]
            row = ((by - _BRICK_TOP) // _BRICK_H).astype(np.int64)
            col = ((bx - _WALL_W) // _BRICK_W).astype(np.int64)
            valid = in_band & (row >= 0) & (row < _N_ROWS) & \
                (col >= 0) & (col < _N_COLS)
            rr = np.clip(row, 0, _N_ROWS - 1)
            cc = np.clip(col, 0, _N_COLS - 1)
            hit = valid & bricks[np.arange(s.size), rr, cc]
            if hit.any():
                idx = np.nonzero(hit)[0]
                bricks[idx, row[idx], col[idx]] = False
                vel[hit, 1] = -vel[hit, 1]
                rewards[hit] += self._row_scores[row[hit]]
            cleared = in_band & ~bricks.any(axis=(1, 2))
            if cleared.any():
                # Cleared the wall: new wall, slightly faster ball.
                bricks[cleared] = True
                clears = self.clears[s]
                clears[cleared] += 1
                self.clears[s] = clears
                vel[cleared] *= 1.1
            self.bricks[s] = bricks

        # Paddle bounce (rare; one slot at a time).
        pad = act & (vel[:, 1] > 0) & \
            (_PADDLE_Y - _BALL_SIZE <= by) & (by <= _PADDLE_Y + _PADDLE_H) & \
            (px - _BALL_SIZE <= bx) & (bx <= px + _PADDLE_W)
        if pad.any():
            for k in np.nonzero(pad)[0]:
                offset = (ball[k, 0] + _BALL_SIZE / 2 - px[k]
                          - _PADDLE_W / 2) / (_PADDLE_W / 2)
                speed = float(np.linalg.norm(vel[k]))
                angle = np.pi / 2 - offset * np.pi / 3
                vel[k, 0] = np.cos(angle) * speed
                vel[k, 1] = -np.sin(angle) * speed
                ball[k, 1] = _PADDLE_Y - _BALL_SIZE

        # Missed: lose a life, ball must be re-served.
        miss = act & (by > SCREEN_HEIGHT)
        self.ball[s] = ball
        self.ball_vel[s] = vel
        if miss.any():
            self.lives[s[miss]] -= 1
            self.ball_in_play[s[miss]] = False
        return rewards

    @hot_path
    def _render_slots(self, slots: np.ndarray) -> None:
        # Bricks, life icons and walls are pairwise disjoint, so a brick
        # or icon repainted alone (in its colour, or in the background
        # it sits on) leaves the layer equal to a full redraw.  Random
        # play changes a brick about once per 70-100 frames and an icon
        # only on a miss.
        layer = self._layer
        bricks = self.bricks[slots]
        changed = bricks != self._drawn_bricks[slots]
        if changed.any():
            for i, row, col in np.argwhere(changed).tolist():
                color = _ROW_COLORS[row] if bricks[i, row, col] else _BG
                layer.fill_rect(int(slots[i]), *_brick_rect(row, col), color)
            self._drawn_bricks[slots] = bricks
        # Fewer than 0 lives draw no icons, as 0 does.
        lives = np.maximum(self.lives[slots], 0)
        drawn = self._drawn_lives[slots]
        differ = np.nonzero(lives != drawn)[0]
        if differ.size:
            for i in differ.tolist():
                have, want = int(drawn[i]), int(lives[i])
                color = _PADDLE if want > have else _BG
                for icon in range(min(have, want), max(have, want)):
                    layer.fill_rect(int(slots[i]), *_icon_rect(icon), color)
            self._drawn_lives[slots] = lives
        scr = self.screen
        scr.copy_slots_from(slots, layer)
        # Coordinates as Python floats: one conversion per array, not
        # a NumPy scalar per read.
        for k, x, in_play, (bx, by) in zip(
                slots.tolist(), self.paddle_x[slots].tolist(),
                self.ball_in_play[slots].tolist(),
                self.ball[slots].tolist()):
            scr.fill_rect(k, _PADDLE_Y, x, _PADDLE_H, _PADDLE_W, _PADDLE)
            if in_play:
                scr.fill_rect(k, by, bx, _BALL_SIZE, _BALL_SIZE, _BALL)

    def may_end(self, slots: np.ndarray) -> np.ndarray:
        # A frame loses at most one life, so only a slot on its last
        # life, or at the frame cap, can end its game at the next frame.
        return (self.lives[slots] <= 1) | \
            (self.frame[slots] + 1 >= self.MAX_FRAMES)
