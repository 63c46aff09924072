"""Beam Rider.

The player ship sits at the bottom of five energy beams and can jump
between adjacent beams; enemy saucers descend along the beams in sectors of
15 ships.  Shooting a saucer scores 44 points (the real game's base value);
clearing a sector awards a bonus and starts a faster one.  Collision with a
saucer costs a life.  Minimal action set mirrors the core of ALE Beam
Rider's nine actions.

Enemy sets are ragged and spawn timing feeds the RNG, so frame dynamics
run one slot at a time over ``(B,)``-array fields; rendering shares the
batched frame buffer.
"""

from __future__ import annotations

import numpy as np

from repro.ale.vec.base import SCREEN_WIDTH, VecAtariGame
from repro.perf.hotpath import hot_path

_BG = (0, 0, 24)
_BEAM = (60, 60, 120)
_PLAYER = (210, 210, 64)
_ENEMY = (200, 72, 72)
_SHOT = (236, 236, 236)

_N_BEAMS = 5
_BEAM_TOP = 40.0
_BEAM_BOTTOM = 180.0
_PLAYER_Y = 180.0
_PLAYER_W = 10.0
_PLAYER_H = 8.0
_ENEMY_SIZE = 8.0
_SHOT_SPEED = 5.0


def _beam_x(beam: int) -> float:
    """Horizontal centre of a beam at the bottom of the screen."""
    spacing = SCREEN_WIDTH / (_N_BEAMS + 1)
    return spacing * (beam + 1)


class VecBeamRider(VecAtariGame):
    """Lane-based shooter with sectors of 15 enemies."""

    ACTION_MEANINGS = ("NOOP", "FIRE", "RIGHT", "LEFT",
                       "RIGHTFIRE", "LEFTFIRE")
    START_LIVES = 3
    MAX_FRAMES = 40_000

    SECTOR_SIZE = 15
    ENEMY_SCORE = 44.0
    SECTOR_BONUS = 100.0
    ENEMY_SPEED = 1.1
    SPAWN_PERIOD = 55      # frames between enemy spawns
    MOVE_COOLDOWN = 10     # frames between beam jumps

    def _alloc(self, batch: int) -> None:
        self.player_beam = np.zeros(batch, dtype=np.int64)
        self.enemies = [[] for _ in range(batch)]
        self.shot = [None] * batch
        self.spawn_timer = np.zeros(batch, dtype=np.int64)
        self.move_cooldown = np.zeros(batch, dtype=np.int64)
        self.sector = np.zeros(batch, dtype=np.int64)
        self.sector_remaining = np.zeros(batch, dtype=np.int64)
        self.sector_to_spawn = np.zeros(batch, dtype=np.int64)
        self.respawn = np.zeros(batch, dtype=np.int64)

    def _reset_slots(self, slots: np.ndarray) -> None:
        for k in slots:
            k = int(k)
            self.player_beam[k] = _N_BEAMS // 2
            self.sector[k] = 0
            self.respawn[k] = 0
            self._start_sector_slot(k)

    def _start_sector_slot(self, k: int) -> None:
        self.enemies[k] = []
        self.shot[k] = None
        self.spawn_timer[k] = self.SPAWN_PERIOD
        self.move_cooldown[k] = 0
        self.sector_remaining[k] = self.SECTOR_SIZE
        self.sector_to_spawn[k] = self.SECTOR_SIZE

    @hot_path
    def _spawn_enemy_slot(self, k: int) -> None:
        self.spawn_timer[k] -= 1
        if self.spawn_timer[k] > 0 or self.sector_to_spawn[k] == 0:
            return
        self.spawn_timer[k] = max(
            self.SPAWN_PERIOD - 4 * int(self.sector[k]), 25)
        beam = int(self.rngs[k].integers(_N_BEAMS))
        self.enemies[k].append(np.array([float(beam), _BEAM_TOP]))
        self.sector_to_spawn[k] -= 1

    @hot_path
    def _step_slot(self, k: int, action: int) -> float:
        if self.respawn[k] > 0:
            self.respawn[k] -= 1
            return 0.0

        dx = int(self._act_dx[action])
        fire = bool(self._act_fire[action])
        if self.move_cooldown[k] > 0:
            self.move_cooldown[k] -= 1
        elif dx != 0:
            new_beam = int(np.clip(self.player_beam[k] + dx, 0,
                                   _N_BEAMS - 1))
            if new_beam != self.player_beam[k]:
                self.player_beam[k] = new_beam
                self.move_cooldown[k] = self.MOVE_COOLDOWN
        if fire and self.shot[k] is None:
            self.shot[k] = np.array([float(self.player_beam[k]),
                                     _PLAYER_Y - 2])

        reward = 0.0
        self._spawn_enemy_slot(k)

        # Enemies descend along their beams.
        enemy_speed = self.ENEMY_SPEED * \
            (1.0 + 0.15 * int(self.sector[k]))
        remaining = []
        for enemy in self.enemies[k]:
            enemy[1] += enemy_speed
            if enemy[1] >= _BEAM_BOTTOM:
                if int(enemy[0]) == self.player_beam[k]:
                    self.lives[k] -= 1
                    self.respawn[k] = 30
                    self._start_sector_slot(k)
                    return reward
                # Escaped off the bottom; it re-enters at the top.
                enemy[1] = _BEAM_TOP
            remaining.append(enemy)
        self.enemies[k] = remaining

        # Shot flight.
        shot = self.shot[k]
        if shot is not None:
            shot[1] -= _SHOT_SPEED
            if shot[1] < _BEAM_TOP:
                self.shot[k] = None
            else:
                for index, enemy in enumerate(self.enemies[k]):
                    if int(enemy[0]) == int(shot[0]) and \
                            abs(enemy[1] - shot[1]) < _ENEMY_SIZE:
                        del self.enemies[k][index]
                        self.shot[k] = None
                        reward += self.ENEMY_SCORE
                        self.sector_remaining[k] -= 1
                        break

        if self.sector_remaining[k] == 0:
            reward += self.SECTOR_BONUS
            self.sector[k] += 1
            self._start_sector_slot(k)
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
        for beam in range(_N_BEAMS):
            x = _beam_x(beam)
            scr.fill_rect_slots(slots, _BEAM_TOP, x - 1,
                                _BEAM_BOTTOM - _BEAM_TOP + 10, 2, _BEAM)
        for k in slots:
            k = int(k)
            for i in range(self.lives[k]):
                scr.fill_rect(k, 8, 8 + 10 * i, 6, 6, _PLAYER)
            for enemy in self.enemies[k]:
                x = _beam_x(int(enemy[0]))
                scr.fill_rect(k, enemy[1], x - _ENEMY_SIZE / 2,
                              _ENEMY_SIZE, _ENEMY_SIZE, _ENEMY)
            shot = self.shot[k]
            if shot is not None:
                x = _beam_x(int(shot[0]))
                scr.fill_rect(k, shot[1], x - 1, 6, 2, _SHOT)
            if self.respawn[k] == 0:
                x = _beam_x(int(self.player_beam[k]))
                scr.fill_rect(k, _PLAYER_Y, x - _PLAYER_W / 2, _PLAYER_H,
                              _PLAYER_W, _PLAYER)
