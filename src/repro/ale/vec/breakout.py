"""Breakout.

Six rows of bricks (scores 7/7/4/4/1/1 from top to bottom, as on the real
cartridge), a paddle, a ball served by FIRE, and five lives.  The minimal
action set is the real ALE Breakout set: NOOP, FIRE, RIGHT, LEFT.

Brick hits resolve with fancy indexing over the ``(B, 6, 18)`` brick
array; launches (an RNG draw) and paddle bounces (``np.linalg.norm``,
whose reduction order must not depend on the batch) run per affected
slot.
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
        # The background and walls never change: each frame starts from
        # this backdrop in a one-slot screen (see _render_slots).
        common = BatchScreen(1)
        common.pixels[0] = _BG
        common.fill_rect(0, _COURT_TOP - 6, 0, 6, SCREEN_WIDTH, _WALL)
        common.fill_rect(0, _COURT_TOP, 0, SCREEN_HEIGHT, _WALL_W, _WALL)
        common.fill_rect(0, _COURT_TOP, SCREEN_WIDTH - _WALL_W,
                         SCREEN_HEIGHT, _WALL_W, _WALL)
        self._common = common
        self._backdrop = common.pixels[0].copy()

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
        # What every listed slot shares (the backdrop and the bricks that
        # are on in all of them) is drawn once and copied: one frame copy
        # per slot is far cheaper than a masked stamp per brick across
        # the batch.  Nothing drawn per slot overlaps a brick, so the
        # draw order does not change a pixel.
        common = self._common
        common.pixels[0] = self._backdrop
        # One reduction per frame, not two per brick.
        bricks = self.bricks[slots]
        on_all = bricks.all(axis=0)
        for row, col in np.argwhere(on_all).tolist():
            common.fill_rect(0, _BRICK_TOP + row * _BRICK_H,
                             _WALL_W + col * _BRICK_W, _BRICK_H - 1,
                             _BRICK_W - 1, _ROW_COLORS[row])
        scr = self.screen
        scr.copy_slots(slots, common.pixels[0])
        for row, col in np.argwhere(bricks.any(axis=0) & ~on_all).tolist():
            scr.fill_rect_slots(slots[bricks[:, row, col]],
                                _BRICK_TOP + row * _BRICK_H,
                                _WALL_W + col * _BRICK_W, _BRICK_H - 1,
                                _BRICK_W - 1, _ROW_COLORS[row])
        for k in slots:
            k = int(k)
            for i in range(self.lives[k]):
                scr.fill_rect(k, 10, 10 + 8 * i, 5, 5, _PADDLE)
            scr.fill_rect(k, _PADDLE_Y, self.paddle_x[k], _PADDLE_H,
                          _PADDLE_W, _PADDLE)
            if self.ball_in_play[k]:
                scr.fill_rect(k, self.ball[k, 1], self.ball[k, 0],
                              _BALL_SIZE, _BALL_SIZE, _BALL)
