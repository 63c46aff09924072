"""Space Invaders.

A 6x6 grid of aliens marches side to side and descends; the player cannon
shoots upward (one shot on screen at a time, as on the real cartridge) and
dodges alien bombs behind the action timer.  Row scores are 30/25/20/15/10/5
points from top to bottom.  Minimal action set matches ALE Space Invaders:
NOOP, FIRE, RIGHT, LEFT, RIGHTFIRE, LEFTFIRE.

The bomb-drop roll consumes RNG every frame and the shot/bomb sets are
ragged, so frame dynamics run one slot at a time over ``(B,)``-array
fields and per-slot entity lists; rendering shares the batched frame
buffer.
"""

from __future__ import annotations

import numpy as np

from repro.ale.vec.base import SCREEN_HEIGHT, SCREEN_WIDTH, VecAtariGame
from repro.perf.hotpath import hot_path

_BG = (0, 0, 0)
_GROUND = (78, 50, 30)
_PLAYER = (50, 205, 50)
_ALIEN = (134, 134, 29)
_BOMB = (213, 130, 74)
_SHOT = (236, 236, 236)

_N_ROWS = 6
_N_COLS = 6
_ROW_SCORES = (30, 25, 20, 15, 10, 5)
_ALIEN_W = 8.0
_ALIEN_H = 8.0
_ALIEN_GAP_X = 16.0
_ALIEN_GAP_Y = 14.0
_PLAYER_Y = 185.0
_PLAYER_W = 8.0
_PLAYER_H = 6.0
_SHOT_SPEED = 5.0
_BOMB_SPEED = 1.6


class VecSpaceInvaders(VecAtariGame):
    """March-and-shoot with descending alien waves and three lives."""

    ACTION_MEANINGS = ("NOOP", "FIRE", "RIGHT", "LEFT",
                       "RIGHTFIRE", "LEFTFIRE")
    START_LIVES = 3
    MAX_FRAMES = 40_000

    PLAYER_SPEED = 3.0
    MARCH_PERIOD = 16      # frames between alien steps
    MARCH_STEP = 4.0
    DESCEND_STEP = 8.0
    BOMB_PROBABILITY = 0.02

    def _alloc(self, batch: int) -> None:
        self.player_x = np.zeros(batch)
        self.alive = np.ones((batch, _N_ROWS, _N_COLS), dtype=bool)
        self.grid_origin = np.zeros((batch, 2))
        self.march_direction = np.ones(batch, dtype=np.int64)
        self.shot = [None] * batch
        self.bombs = [[] for _ in range(batch)]
        self.march_timer = np.zeros(batch, dtype=np.int64)
        self.wave = np.zeros(batch, dtype=np.int64)
        self.respawn = np.zeros(batch, dtype=np.int64)

    def _reset_slots(self, slots: np.ndarray) -> None:
        for k in slots:
            k = int(k)
            self.player_x[k] = SCREEN_WIDTH / 2 - _PLAYER_W / 2
            self.wave[k] = 0
            self.respawn[k] = 0
            self._new_wave_slot(k)

    def _new_wave_slot(self, k: int) -> None:
        self.alive[k] = True
        self.grid_origin[k] = (24.0, 40.0 + 4.0 * self.wave[k])
        self.march_direction[k] = 1
        self.shot[k] = None
        self.bombs[k] = []
        self.march_timer[k] = self.MARCH_PERIOD

    def _alien_rect(self, k: int, row: int, col: int):
        x = self.grid_origin[k, 0] + col * _ALIEN_GAP_X
        y = self.grid_origin[k, 1] + row * _ALIEN_GAP_Y
        return x, y

    def _march_slot(self, k: int) -> None:
        self.march_timer[k] -= 1
        if self.march_timer[k] > 0:
            return
        self.march_timer[k] = self.MARCH_PERIOD
        cols_alive = np.where(self.alive[k].any(axis=0))[0]
        left = self.grid_origin[k, 0] + cols_alive[0] * _ALIEN_GAP_X
        right = self.grid_origin[k, 0] + cols_alive[-1] * _ALIEN_GAP_X \
            + _ALIEN_W
        direction = int(self.march_direction[k])
        nxt_left = left + direction * self.MARCH_STEP
        nxt_right = right + direction * self.MARCH_STEP
        if nxt_left < 8 or nxt_right > SCREEN_WIDTH - 8:
            self.march_direction[k] = -direction
            self.grid_origin[k, 1] += self.DESCEND_STEP
        else:
            self.grid_origin[k, 0] += direction * self.MARCH_STEP

    @hot_path
    def _drop_bombs_slot(self, k: int) -> None:
        rng = self.rngs[k]
        if rng.random() >= \
                self.BOMB_PROBABILITY * \
                self.alive[k].sum(axis=None):
            return
        cols = np.where(self.alive[k].any(axis=0))[0]
        col = int(rng.choice(cols))
        row = int(np.where(self.alive[k][:, col])[0][-1])
        x, y = self._alien_rect(k, row, col)
        self.bombs[k].append(np.array([x + _ALIEN_W / 2, y + _ALIEN_H]))

    def _step_shot_slot(self, k: int) -> float:
        shot = self.shot[k]
        if shot is None:
            return 0.0
        shot[1] -= _SHOT_SPEED
        if shot[1] < 20:
            self.shot[k] = None
            return 0.0
        # Hit test against aliens.
        for row in range(_N_ROWS):
            for col in range(_N_COLS):
                if not self.alive[k, row, col]:
                    continue
                x, y = self._alien_rect(k, row, col)
                if x <= shot[0] <= x + _ALIEN_W and \
                        y <= shot[1] <= y + _ALIEN_H:
                    self.alive[k, row, col] = False
                    self.shot[k] = None
                    return float(_ROW_SCORES[row])
        return 0.0

    def _step_bombs_slot(self, k: int) -> None:
        remaining = []
        for bomb in self.bombs[k]:
            bomb[1] += _BOMB_SPEED
            if _PLAYER_Y <= bomb[1] <= _PLAYER_Y + _PLAYER_H and \
                    self.player_x[k] <= bomb[0] <= \
                    self.player_x[k] + _PLAYER_W:
                self.lives[k] -= 1
                self.respawn[k] = 30
                self.bombs[k] = []
                return
            if bomb[1] < SCREEN_HEIGHT - 12:
                remaining.append(bomb)
        self.bombs[k] = remaining

    @hot_path
    def _step_slot(self, k: int, action: int) -> float:
        if self.respawn[k] > 0:
            self.respawn[k] -= 1
            return 0.0

        dx = int(self._act_dx[action])
        fire = bool(self._act_fire[action])
        self.player_x[k] = np.clip(
            self.player_x[k] + dx * self.PLAYER_SPEED,
            8, SCREEN_WIDTH - 8 - _PLAYER_W)
        if fire and self.shot[k] is None:
            self.shot[k] = np.array([self.player_x[k] + _PLAYER_W / 2,
                                     _PLAYER_Y - 1])

        self._march_slot(k)
        self._drop_bombs_slot(k)
        reward = self._step_shot_slot(k)
        self._step_bombs_slot(k)

        # Aliens reached the ground: lose the game.
        rows_alive = np.where(self.alive[k].any(axis=1))[0]
        if rows_alive.size:
            lowest = self.grid_origin[k, 1] + \
                rows_alive[-1] * _ALIEN_GAP_Y + _ALIEN_H
            if lowest >= _PLAYER_Y:
                self.lives[k] = 0
        if not self.alive[k].any():
            self.wave[k] += 1
            self._new_wave_slot(k)
        return reward

    @hot_path
    def _step_slots(self, slots: np.ndarray,
                    actions: np.ndarray) -> np.ndarray:
        rewards = np.zeros(slots.size)
        for kc in range(slots.size):
            rewards[kc] = self._step_slot(int(slots[kc]),
                                          int(actions[kc]))
        return rewards

    @hot_path
    def _render_slots(self, slots: np.ndarray) -> None:
        scr = self.screen
        scr.clear_slots(slots, _BG)
        scr.fill_rect_slots(slots, SCREEN_HEIGHT - 12, 0, 12, SCREEN_WIDTH,
                            _GROUND)
        for k in slots:
            k = int(k)
            for i in range(self.lives[k]):
                scr.fill_rect(k, 8, 8 + 10 * i, 6, 6, _PLAYER)
            for row in range(_N_ROWS):
                for col in range(_N_COLS):
                    if self.alive[k, row, col]:
                        x, y = self._alien_rect(k, row, col)
                        scr.fill_rect(k, y, x, _ALIEN_H, _ALIEN_W, _ALIEN)
            if self.respawn[k] == 0:
                scr.fill_rect(k, _PLAYER_Y, self.player_x[k], _PLAYER_H,
                              _PLAYER_W, _PLAYER)
            shot = self.shot[k]
            if shot is not None:
                scr.fill_rect(k, shot[1], shot[0], 5, 2, _SHOT)
            for bomb in self.bombs[k]:
                scr.fill_rect(k, bomb[1], bomb[0], 5, 2, _BOMB)
