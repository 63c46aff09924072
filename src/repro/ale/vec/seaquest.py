"""Seaquest.

A submarine hunts sharks (+20 each) and rescues divers while managing an
oxygen tank: oxygen drains underwater and refills at the surface; running
dry costs a life.  Surfacing with rescued divers scores a bonus.  The
minimal action set here is the six-action movement/fire subset (the real
cartridge exposes all 18; the strategy space — shoot, rescue, surface — is
preserved).

Seaquest draws from its RNG every frame (spawn rolls) and keeps ragged
shark/diver lists, so its frame dynamics run one slot at a time; the
per-slot fields live in ``(B,)`` arrays and all slots share the batched
frame buffer.
"""

from __future__ import annotations

import numpy as np

from repro.ale.vec.base import SCREEN_HEIGHT, SCREEN_WIDTH, VecAtariGame
from repro.perf.hotpath import hot_path

_SKY = (120, 180, 240)
_WATER = (24, 59, 157)
_SUB = (210, 210, 64)
_SHARK = (92, 186, 92)
_DIVER = (236, 200, 96)
_TORPEDO = (236, 236, 236)
_OXYGEN_BAR = (214, 214, 214)
_OXYGEN_LOW = (200, 72, 72)

_SURFACE_Y = 46.0
_FLOOR_Y = 194.0
_SUB_W = 12.0
_SUB_H = 8.0
_SHARK_W = 10.0
_SHARK_H = 6.0
_DIVER_W = 6.0
_DIVER_H = 8.0
_TORPEDO_SPEED = 4.0


class VecSeaquest(VecAtariGame):
    """Underwater shooter with an oxygen resource loop."""

    ACTION_MEANINGS = ("NOOP", "FIRE", "UP", "RIGHT", "LEFT", "DOWN")
    START_LIVES = 3
    MAX_FRAMES = 40_000

    SUB_SPEED = 2.5
    SHARK_SPEED = 1.4
    DIVER_SPEED = 0.8
    OXYGEN_MAX = 400.0
    SHARK_SCORE = 20.0
    DIVER_BONUS = 50.0
    SPAWN_PROBABILITY = 0.03
    DIVER_PROBABILITY = 0.01
    MAX_DIVERS_HELD = 6

    def _alloc(self, batch: int) -> None:
        self.sub = np.zeros((batch, 2))
        self.oxygen = np.zeros(batch)
        self.sharks = [[] for _ in range(batch)]
        self.divers = [[] for _ in range(batch)]
        self.torpedo = [None] * batch
        self.divers_held = np.zeros(batch, dtype=np.int64)
        self.respawn = np.zeros(batch, dtype=np.int64)

    def _reset_slots(self, slots: np.ndarray) -> None:
        for k in slots:
            k = int(k)
            self.sub[k] = (SCREEN_WIDTH / 2, _SURFACE_Y + 30)
            self.oxygen[k] = self.OXYGEN_MAX
            self.sharks[k] = []
            self.divers[k] = []
            self.torpedo[k] = None
            self.divers_held[k] = 0
            self.respawn[k] = 0

    @hot_path
    def _spawn_slot(self, k: int) -> None:
        rng = self.rngs[k]
        if rng.random() < self.SPAWN_PROBABILITY:
            direction = 1 if rng.random() < 0.5 else -1
            x = -_SHARK_W if direction > 0 else SCREEN_WIDTH
            y = rng.uniform(_SURFACE_Y + 20, _FLOOR_Y - 10)
            self.sharks[k].append(np.array([x, y, direction]))
        if rng.random() < self.DIVER_PROBABILITY:
            direction = 1 if rng.random() < 0.5 else -1
            x = -_DIVER_W if direction > 0 else SCREEN_WIDTH
            y = rng.uniform(_SURFACE_Y + 30, _FLOOR_Y - 10)
            self.divers[k].append(np.array([x, y, direction]))

    def _lose_life_slot(self, k: int) -> None:
        self.lives[k] -= 1
        self.respawn[k] = 30
        self.sub[k] = (SCREEN_WIDTH / 2, _SURFACE_Y + 30)
        self.oxygen[k] = self.OXYGEN_MAX
        self.torpedo[k] = None
        self.divers_held[k] = 0

    @hot_path
    def _step_slot(self, k: int, action: int) -> float:
        if self.respawn[k] > 0:
            self.respawn[k] -= 1
            return 0.0

        dx = int(self._act_dx[action])
        dy = int(self._act_dy[action])
        fire = bool(self._act_fire[action])
        self.sub[k, 0] = np.clip(self.sub[k, 0] + dx * self.SUB_SPEED,
                                 0, SCREEN_WIDTH - _SUB_W)
        self.sub[k, 1] = np.clip(self.sub[k, 1] + dy * self.SUB_SPEED,
                                 _SURFACE_Y, _FLOOR_Y - _SUB_H)
        if fire and self.torpedo[k] is None:
            facing = 1.0 if dx >= 0 else -1.0
            self.torpedo[k] = np.array([self.sub[k, 0] + _SUB_W / 2,
                                        self.sub[k, 1] + _SUB_H / 2,
                                        facing])

        reward = 0.0
        at_surface = self.sub[k, 1] <= _SURFACE_Y + 1

        # Oxygen economy.
        if at_surface:
            refill = self.oxygen[k] < self.OXYGEN_MAX
            self.oxygen[k] = min(self.OXYGEN_MAX,
                                 self.oxygen[k] + 8.0)
            if refill and self.oxygen[k] >= self.OXYGEN_MAX \
                    and self.divers_held[k] > 0:
                reward += self.DIVER_BONUS * self.divers_held[k]
                self.divers_held[k] = 0
        else:
            self.oxygen[k] -= 1.0
            if self.oxygen[k] <= 0:
                self._lose_life_slot(k)
                return reward

        self._spawn_slot(k)

        # Sharks drift horizontally; collide with the sub.
        remaining = []
        for shark in self.sharks[k]:
            shark[0] += shark[2] * self.SHARK_SPEED
            if -_SHARK_W <= shark[0] <= SCREEN_WIDTH:
                remaining.append(shark)
        self.sharks[k] = remaining
        for shark in self.sharks[k]:
            if (abs(shark[0] - self.sub[k, 0]) < (_SHARK_W + _SUB_W) / 2
                    and abs(shark[1] - self.sub[k, 1]) <
                    (_SHARK_H + _SUB_H) / 2):
                self._lose_life_slot(k)
                return reward

        # Divers drift; pick them up by touching.
        remaining = []
        for diver in self.divers[k]:
            diver[0] += diver[2] * self.DIVER_SPEED
            touched = (abs(diver[0] - self.sub[k, 0]) <
                       (_DIVER_W + _SUB_W) / 2 and
                       abs(diver[1] - self.sub[k, 1]) <
                       (_DIVER_H + _SUB_H) / 2)
            if touched and self.divers_held[k] < self.MAX_DIVERS_HELD:
                self.divers_held[k] += 1
            elif -_DIVER_W <= diver[0] <= SCREEN_WIDTH:
                remaining.append(diver)
        self.divers[k] = remaining

        # Torpedo flight and shark hits.
        torpedo = self.torpedo[k]
        if torpedo is not None:
            torpedo[0] += torpedo[2] * _TORPEDO_SPEED
            if not 0 <= torpedo[0] <= SCREEN_WIDTH:
                self.torpedo[k] = None
            else:
                for index, shark in enumerate(self.sharks[k]):
                    if (abs(shark[0] - torpedo[0]) < _SHARK_W and
                            abs(shark[1] - torpedo[1]) < _SHARK_H):
                        del self.sharks[k][index]
                        self.torpedo[k] = None
                        reward += self.SHARK_SCORE
                        break
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
        scr.clear_slots(slots, _WATER)
        scr.fill_rect_slots(slots, 0, 0, _SURFACE_Y, SCREEN_WIDTH, _SKY)
        for k in slots:
            k = int(k)
            # Oxygen gauge along the bottom.
            frac = max(self.oxygen[k], 0.0) / self.OXYGEN_MAX
            color = _OXYGEN_BAR if frac > 0.25 else _OXYGEN_LOW
            scr.fill_rect(k, SCREEN_HEIGHT - 10, 20, 6,
                          (SCREEN_WIDTH - 40) * frac, color)
            for i in range(self.lives[k]):
                scr.fill_rect(k, 8, 8 + 10 * i, 6, 6, _SUB)
            for i in range(self.divers_held[k]):
                scr.fill_rect(k, 8, SCREEN_WIDTH - 16 - 10 * i, 6, 6,
                              _DIVER)
            for shark in self.sharks[k]:
                scr.fill_rect(k, shark[1], shark[0], _SHARK_H, _SHARK_W,
                              _SHARK)
            for diver in self.divers[k]:
                scr.fill_rect(k, diver[1], diver[0], _DIVER_H, _DIVER_W,
                              _DIVER)
            torpedo = self.torpedo[k]
            if torpedo is not None:
                scr.fill_rect(k, torpedo[1], torpedo[0], 2, 6, _TORPEDO)
            if self.respawn[k] == 0:
                scr.fill_rect(k, self.sub[k, 1], self.sub[k, 0], _SUB_H,
                              _SUB_W, _SUB)
