"""Tests for the DeepMind preprocessing pipeline of ``make_atari_env``.

Each stage is checked on a pipeline env against a raw ``make_game``
replay under the same seed and actions: the raw game is the engine that
``tests/test_ale_golden.py`` pins, so it is an independent reference for
the frame skip, the max-of-two, the life-loss restart and the clipping.
"""

import numpy as np
import pytest

from repro.ale import make_game
from repro.envs import Catch, make_atari_env
from repro.envs.batched import FRAME_SKIP
from repro.envs.preprocessing import preprocess_frame


def _cycle(raw, action):
    """One frame-skip cycle on the raw game: (frames, total, game over)."""
    frames, total, over = [], 0.0, False
    for _ in range(FRAME_SKIP):
        frame, reward, over, _ = raw.step(action)
        frames.append(frame)
        total += reward
        if over:
            break
    return frames, total, over


def _paired(name, seed=1, steps=400):
    """Step a pipeline env beside a raw game until the game is over.

    Yields ``(env, raw, obs, reward, done, info, frames, total)`` per
    step, where ``frames`` and ``total`` are the raw replay's cycle.
    A life loss restarts both: the env with ``reset()``, the raw game
    with one NOOP cycle (a full reset if the game ends in it).
    """
    env = make_atari_env(make_game(name))
    env.seed(seed)
    env.reset()
    raw = make_game(name)
    raw.seed(seed)
    raw.reset()
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        action = int(rng.integers(env.action_space.n))
        obs, reward, done, info = env.step(action)
        frames, total, over = _cycle(raw, action)
        yield env, raw, obs, reward, done, info, frames, total
        if over:
            return
        if done:
            env.reset()
            if _cycle(raw, 0)[2]:
                raw.reset()
    raise AssertionError(f"{name}: no game over in {steps} steps")


class TestMaxAndSkip:
    def test_skip_advances_underlying_frames(self):
        env = make_atari_env(make_game("breakout"))
        env.seed(0)
        env.reset()
        env.step(0)
        assert env.vec.engine.frame[0] == FRAME_SKIP

    def test_max_pool_deflickers(self):
        steps = 0
        for _, _, obs, _, _, _, frames, _ in _paired("qbert"):
            expected = np.maximum(frames[-2], frames[-1]) \
                if len(frames) >= 2 else frames[-1]
            np.testing.assert_array_equal(obs[-1],
                                          preprocess_frame(expected))
            steps += 1
        assert steps > 1

    def test_rewards_summed_over_skip(self):
        totals = [(info["raw_reward"], total) for _, _, _, _, _, info, _,
                  total in _paired("qbert")]
        assert all(raw_reward == total for raw_reward, total in totals)
        assert any(total for _, total in totals)

    def test_stops_at_done(self):
        for env, raw, _, _, done, info, frames, _ in _paired("qbert"):
            pass
        assert done and not info.get("life_lost")
        assert raw.game_over
        # This game ends mid-cycle, and the cycle stops on that frame.
        assert len(frames) < FRAME_SKIP
        assert env.vec.engine.frame[0] == raw.frame


class TestFrameStack:
    def test_reset_fills_stack_with_first_frame(self):
        env = make_atari_env(make_game("pong"))
        env.seed(0)
        obs = env.reset()
        assert obs.shape == (4, 84, 84)
        for i in range(1, 4):
            np.testing.assert_array_equal(obs[0], obs[i])

    def test_stack_rolls(self):
        env = make_atari_env(make_game("pong"))
        env.seed(0)
        first = env.reset().copy()
        obs, _, _, _ = env.step(0)
        np.testing.assert_array_equal(obs[:-1], first[1:])   # newest last

    def test_observation_space_shape(self):
        env = make_atari_env(make_game("pong"))
        assert env.observation_space.shape == (4, 84, 84)


class TestClipReward:
    def test_clips_to_sign(self):
        clipped = [(reward, info["raw_reward"]) for _, _, _, reward, _,
                   info, _, _ in _paired("qbert")]
        assert all(reward == np.sign(raw) for reward, raw in clipped)
        assert any(raw > 1 for _, raw in clipped)


class TestFullAtariStack:
    def test_standard_observation_contract(self):
        env = make_atari_env(make_game("pong"))
        env.seed(0)
        obs = env.reset()
        assert obs.shape == (4, 84, 84)
        assert obs.dtype == np.float32
        assert 0.0 <= obs.min() and obs.max() <= 1.0

    def test_clipped_rewards_are_signs(self):
        env = make_atari_env(make_game("breakout"))
        env.seed(1)
        env.reset()
        rng = np.random.default_rng(0)
        for _ in range(200):
            _, reward, done, _ = env.step(env.action_space.sample(rng))
            assert reward in (-1.0, 0.0, 1.0)
            if done:
                env.reset()

    def test_episodic_life_shortens_episodes(self):
        env = make_atari_env(make_game("breakout"))
        env.seed(2)
        env.reset()
        rng = np.random.default_rng(2)
        saw_life_loss_done = False
        for _ in range(600):
            _, _, done, info = env.step(env.action_space.sample(rng))
            if done:
                if info.get("life_lost"):
                    saw_life_loss_done = True
                env.reset()
        assert saw_life_loss_done

    def test_time_limit_truncation(self):
        env = make_atari_env(make_game("seaquest"), max_episode_steps=5)
        env.seed(0)
        env.reset()
        done = False
        steps = 0
        while not done:
            _, _, done, info = env.step(0)
            steps += 1
        assert steps <= 5

    def test_step_after_game_over_needs_reset(self):
        for env, *_ in _paired("qbert"):
            pass
        with pytest.raises(RuntimeError, match="reset"):
            env.step(0)
        env.reset()
        env.step(0)

    @pytest.mark.parametrize("action", [2.9, "1", True])
    def test_rejects_non_integer_actions(self, action):
        env = make_atari_env(make_game("breakout"))
        env.seed(0)
        env.reset()
        with pytest.raises(ValueError):
            env.step(action)
        assert env.vec.engine.frame[0] == 0

    def test_rejects_an_env_that_is_not_a_game(self):
        with pytest.raises(TypeError, match="Catch"):
            make_atari_env(Catch())
