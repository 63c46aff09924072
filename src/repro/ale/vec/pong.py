"""Pong.

The agent controls the right paddle; a scripted opponent with limited paddle
speed controls the left.  Like ALE Pong the minimal action set has six
actions (RIGHT/LEFT move the paddle up/down on the original hardware), the
reward is +1 when the opponent misses and -1 when the agent misses, and the
game ends when either side reaches 21 points.

Serves draw from the serving slot's generator; everything else is
elementwise float64 math over the batch axis.
"""

from __future__ import annotations

import numpy as np

from repro.ale.vec.base import SCREEN_WIDTH, VecAtariGame
from repro.perf.hotpath import hot_path

_BG = (17, 72, 144)
_AGENT = (92, 186, 92)
_OPPONENT = (213, 130, 74)
_BALL = (236, 236, 236)
_WALL = (236, 236, 236)

_COURT_TOP = 34
_COURT_BOTTOM = 194
_PADDLE_H = 16.0
_PADDLE_W = 4.0
_BALL_SIZE = 4.0
_AGENT_X = SCREEN_WIDTH - 16.0
_OPPONENT_X = 12.0
_WIN_SCORE = 21


class VecPong(VecAtariGame):
    """Two-paddle Pong against a tracking opponent."""

    ACTION_MEANINGS = ("NOOP", "FIRE", "RIGHT", "LEFT",
                       "RIGHTFIRE", "LEFTFIRE")
    START_LIVES = 1
    MAX_FRAMES = 40_000

    PADDLE_SPEED = 4.0
    OPPONENT_SPEED = 2.6
    BALL_SPEED_X = 2.4
    BALL_SPEED_Y_MAX = 2.8

    def _alloc(self, batch: int) -> None:
        self.agent_y = np.zeros(batch)
        self.opponent_y = np.zeros(batch)
        self.ball = np.zeros((batch, 2))
        self.ball_vel = np.zeros((batch, 2))
        self.agent_score = np.zeros(batch, dtype=np.int64)
        self.opponent_score = np.zeros(batch, dtype=np.int64)
        self.serve_delay = np.zeros(batch, dtype=np.int64)
        self.serve_direction = np.ones(batch, dtype=np.int64)

    def _reset_slots(self, slots: np.ndarray) -> None:
        mid = (_COURT_TOP + _COURT_BOTTOM) / 2
        self.agent_y[slots] = mid - _PADDLE_H / 2
        self.opponent_y[slots] = mid - _PADDLE_H / 2
        self.agent_score[slots] = 0
        self.opponent_score[slots] = 0
        for k in slots:
            k = int(k)
            self.serve_direction[k] = \
                1 if self.rngs[k].random() < 0.5 else -1
            self._serve_slot(k)

    def _serve_slot(self, k: int) -> None:
        rng = self.rngs[k]
        self.ball[k, 0] = SCREEN_WIDTH / 2
        self.ball[k, 1] = rng.uniform(_COURT_TOP + 20, _COURT_BOTTOM - 20)
        vy = rng.uniform(-1.5, 1.5)
        self.ball_vel[k, 0] = self.BALL_SPEED_X * self.serve_direction[k]
        self.ball_vel[k, 1] = vy
        self.serve_delay[k] = 20

    @hot_path
    def _step_slots(self, slots: np.ndarray,
                    actions: np.ndarray) -> np.ndarray:
        s = slots
        right = self._act_right[actions]
        left = self._act_left[actions] & ~right
        agent_y = self.agent_y[s]
        agent_y[right] -= self.PADDLE_SPEED
        agent_y[left] += self.PADDLE_SPEED
        agent_y = np.clip(agent_y, _COURT_TOP, _COURT_BOTTOM - _PADDLE_H)
        ball = self.ball[s]
        vel = self.ball_vel[s]
        # Scripted opponent tracks the ball (dead zone of 4 pixels).
        opp = self.opponent_y[s]
        delta = (ball[:, 1] - _PADDLE_H / 2) - opp
        track = np.abs(delta) > 4
        track_step = np.clip(delta, -self.OPPONENT_SPEED,
                             self.OPPONENT_SPEED)
        opp[track] += track_step[track]
        opp = np.clip(opp, _COURT_TOP, _COURT_BOTTOM - _PADDLE_H)

        sd = self.serve_delay[s]
        waiting = sd > 0
        sd[waiting] -= 1
        act = ~waiting
        rewards = np.zeros(s.size)

        ball[act] += vel[act]
        by = ball[:, 1]
        m_top = act & (by <= _COURT_TOP)
        ball[m_top, 1] = _COURT_TOP
        vel[m_top, 1] = np.abs(vel[m_top, 1])
        m_bot = act & ~m_top & (by >= _COURT_BOTTOM - _BALL_SIZE)
        ball[m_bot, 1] = _COURT_BOTTOM - _BALL_SIZE
        vel[m_bot, 1] = -np.abs(vel[m_bot, 1])

        asco = self.agent_score[s]
        osco = self.opponent_score[s]
        sdir = self.serve_direction[s]
        # Agent side (right).
        cond_a = act & (vel[:, 0] > 0) & \
            (ball[:, 0] + _BALL_SIZE >= _AGENT_X)
        hit_a = cond_a & (agent_y - _BALL_SIZE <= ball[:, 1]) & \
            (ball[:, 1] <= agent_y + _PADDLE_H)
        if hit_a.any():
            offset = (ball[hit_a, 1] + _BALL_SIZE / 2 - agent_y[hit_a]
                      - _PADDLE_H / 2) / (_PADDLE_H / 2)
            vel[hit_a, 0] = np.clip(-vel[hit_a, 0] * 1.03, -4.0, 4.0)
            vel[hit_a, 1] = np.clip(offset * self.BALL_SPEED_Y_MAX,
                                    -self.BALL_SPEED_Y_MAX,
                                    self.BALL_SPEED_Y_MAX)
            ball[hit_a, 0] = _AGENT_X - _BALL_SIZE
        miss_a = cond_a & ~hit_a & (ball[:, 0] > SCREEN_WIDTH)
        # Opponent side (left), for slots the agent-side test skipped.
        cond_o = act & ~cond_a & (vel[:, 0] < 0) & \
            (ball[:, 0] <= _OPPONENT_X + _PADDLE_W)
        hit_o = cond_o & (opp - _BALL_SIZE <= ball[:, 1]) & \
            (ball[:, 1] <= opp + _PADDLE_H)
        if hit_o.any():
            offset = (ball[hit_o, 1] + _BALL_SIZE / 2 - opp[hit_o]
                      - _PADDLE_H / 2) / (_PADDLE_H / 2)
            vel[hit_o, 0] = np.clip(-vel[hit_o, 0] * 1.03, -4.0, 4.0)
            vel[hit_o, 1] = np.clip(offset * self.BALL_SPEED_Y_MAX,
                                    -self.BALL_SPEED_Y_MAX,
                                    self.BALL_SPEED_Y_MAX)
            ball[hit_o, 0] = _OPPONENT_X + _PADDLE_W
        miss_o = cond_o & ~hit_o & (ball[:, 0] < -_BALL_SIZE)

        rewards[miss_a] = -1.0
        osco[miss_a] += 1
        sdir[miss_a] = 1
        rewards[miss_o] = 1.0
        asco[miss_o] += 1
        sdir[miss_o] = -1

        self.agent_y[s] = agent_y
        self.opponent_y[s] = opp
        self.ball[s] = ball
        self.ball_vel[s] = vel
        self.serve_delay[s] = sd
        self.agent_score[s] = asco
        self.opponent_score[s] = osco
        self.serve_direction[s] = sdir
        serve = miss_a | miss_o
        if serve.any():
            for k in s[serve]:
                self._serve_slot(int(k))
        win = act & ((asco >= _WIN_SCORE) | (osco >= _WIN_SCORE))
        if win.any():
            self.lives[s[win]] = 0
        return rewards

    @hot_path
    def _render_slots(self, slots: np.ndarray) -> None:
        scr = self.screen
        scr.clear_slots(slots, _BG)
        scr.fill_rect_slots(slots, _COURT_TOP - 4, 0, 4, SCREEN_WIDTH,
                            _WALL)
        scr.fill_rect_slots(slots, _COURT_BOTTOM, 0, 4, SCREEN_WIDTH,
                            _WALL)
        for k in slots:
            k = int(k)
            scr.fill_rect(k, 8, 10, 8, 3 * self.opponent_score[k],
                          _OPPONENT)
            scr.fill_rect(k, 8,
                          SCREEN_WIDTH - 10 - 3 * self.agent_score[k],
                          8, 3 * self.agent_score[k], _AGENT)
            scr.fill_rect(k, self.opponent_y[k], _OPPONENT_X, _PADDLE_H,
                          _PADDLE_W, _OPPONENT)
            scr.fill_rect(k, self.agent_y[k], _AGENT_X, _PADDLE_H,
                          _PADDLE_W, _AGENT)
            if self.serve_delay[k] == 0:
                scr.fill_rect(k, self.ball[k, 1], self.ball[k, 0],
                              _BALL_SIZE, _BALL_SIZE, _BALL)
