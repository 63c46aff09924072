"""Tests for spaces, the Env contract, TimeLimit, and preprocessing."""

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

from repro.envs import (
    Box,
    CartPole,
    Catch,
    Discrete,
    GridWorld,
    TimeLimit,
    bilinear_resize,
    rgb_to_grayscale,
)
from repro.envs.preprocessing import preprocess_frame


class TestDiscrete:
    def test_contains(self):
        space = Discrete(4)
        assert space.contains(0)
        assert space.contains(3)
        assert not space.contains(4)
        assert not space.contains(-1)
        assert not space.contains("x")
        assert not space.contains(True)
        assert space.contains(np.int64(2))
        assert not space.contains("1")
        assert not space.contains(2.9)
        assert not space.contains(2.0)
        assert not space.contains(np.float64(1.0))
        assert not space.contains(None)

    def test_sample_in_range(self):
        space = Discrete(5)
        rng = np.random.default_rng(0)
        assert all(space.contains(space.sample(rng)) for _ in range(50))

    def test_requires_positive_n(self):
        with pytest.raises(ValueError):
            Discrete(0)

    def test_equality(self):
        assert Discrete(3) == Discrete(3)
        assert Discrete(3) != Discrete(4)


class TestBox:
    def test_contains_shape_and_bounds(self):
        space = Box(0.0, 1.0, (2, 2))
        assert space.contains(np.zeros((2, 2)))
        assert not space.contains(np.zeros((2, 3)))
        assert not space.contains(np.full((2, 2), 2.0))

    def test_sample_within_bounds(self):
        space = Box(-1.0, 1.0, (3,))
        sample = space.sample(np.random.default_rng(0))
        assert space.contains(sample)
        assert sample.dtype == np.float32


class TestTimeLimit:
    def test_truncates_and_flags(self):
        env = TimeLimit(GridWorld(size=50, max_steps=10_000), max_steps=3)
        env.reset()
        for _ in range(2):
            _, _, done, info = env.step(1)
            assert not done
        _, _, done, info = env.step(1)
        assert done
        assert info["truncated"]

    def test_counter_resets(self):
        env = TimeLimit(GridWorld(size=50, max_steps=10_000), max_steps=2)
        env.reset()
        env.step(1)
        env.reset()
        _, _, done, _ = env.step(1)
        assert not done

    def test_invalid_limit(self):
        with pytest.raises(ValueError):
            TimeLimit(Catch(), max_steps=0)


class TestClassicEnvs:
    def test_catch_episode_length_is_grid_size(self):
        env = Catch(size=7)
        env.seed(0)
        env.reset()
        steps = 0
        done = False
        while not done:
            _, reward, done, _ = env.step(1)
            steps += 1
        assert steps == 6  # size - 1 falls
        assert reward in (-1.0, 1.0)

    def test_catch_optimal_play_wins(self):
        env = Catch(size=7)
        env.seed(3)
        obs = env.reset()
        done = False
        reward = 0.0
        while not done:
            ball_col = int(np.argwhere(obs[:-1].any(axis=0))[0, 0])
            paddle_col = int(np.argmax(obs[-1]))
            action = 1 + int(np.sign(ball_col - paddle_col))
            obs, reward, done, _ = env.step(action)
        assert reward == 1.0

    def test_catch_step_after_done_raises(self):
        env = Catch()
        env.reset()
        done = False
        while not done:
            _, _, done, _ = env.step(1)
        with pytest.raises(RuntimeError):
            env.step(1)

    def test_gridworld_reaches_goal(self):
        env = GridWorld(size=3)
        env.reset()
        total = 0.0
        for action in [1, 1, 3, 3]:
            _, reward, done, _ = env.step(action)
            total += reward
        assert done
        assert total == pytest.approx(1.0 - 3 * 0.01)

    def test_gridworld_invalid_action(self):
        env = GridWorld()
        env.reset()
        with pytest.raises(ValueError):
            env.step(7)

    def test_cartpole_eventually_falls_without_control(self):
        env = CartPole()
        env.seed(0)
        env.reset()
        steps = 0
        done = False
        while not done and steps < 600:
            _, _, done, _ = env.step(0)
            steps += 1
        assert done
        assert steps < 500

    def test_cartpole_observation_shape(self):
        env = CartPole()
        env.seed(1)
        obs = env.reset()
        assert obs.shape == (4,)
        assert obs.dtype == np.float32

    def test_seeding_reproducible(self):
        def run(seed):
            env = Catch()
            env.seed(seed)
            env.reset()
            trace = []
            for _ in range(20):
                obs, r, done, _ = env.step(2)
                trace.append((r, done))
                if done:
                    env.reset()
            return trace
        assert run(7) == run(7)
        assert run(7) != run(8)


class TestPreprocessing:
    def test_grayscale_luma_weights(self):
        frame = np.zeros((2, 2, 3), dtype=np.uint8)
        frame[0, 0] = (255, 0, 0)
        gray = rgb_to_grayscale(frame)
        assert gray[0, 0] == pytest.approx(255 * 0.299, rel=1e-4)

    def test_grayscale_validates_shape(self):
        with pytest.raises(ValueError):
            rgb_to_grayscale(np.zeros((4, 4)))

    def test_resize_identity(self):
        image = np.random.default_rng(0).random((8, 8)).astype(np.float32)
        np.testing.assert_array_equal(bilinear_resize(image, 8, 8), image)

    def test_resize_constant_image_stays_constant(self):
        image = np.full((30, 17), 3.5, dtype=np.float32)
        out = bilinear_resize(image, 84, 84)
        np.testing.assert_allclose(out, 3.5, rtol=1e-6)

    def test_resize_downsample_shape(self):
        out = bilinear_resize(np.zeros((210, 160)), 84, 84)
        assert out.shape == (84, 84)

    @hypothesis.given(st.integers(0, 2 ** 31 - 1))
    @hypothesis.settings(max_examples=15, deadline=None)
    def test_resize_preserves_value_range(self, seed):
        rng = np.random.default_rng(seed)
        image = rng.random((21, 17)).astype(np.float32) * 255
        out = bilinear_resize(image, 9, 13)
        assert out.min() >= image.min() - 1e-3
        assert out.max() <= image.max() + 1e-3

    def test_resize_linear_gradient_exact(self):
        """Bilinear interpolation reproduces a linear ramp exactly."""
        image = np.tile(np.arange(16, dtype=np.float32), (4, 1))
        out = bilinear_resize(image, 4, 31)
        expected = np.clip((np.arange(31) + 0.5) * (16 / 31) - 0.5,
                           0.0, 15.0)
        np.testing.assert_allclose(out[0], expected, atol=1e-4)

    def test_preprocess_frame_scales_to_unit(self):
        frame = np.full((210, 160, 3), 255, dtype=np.uint8)
        out = preprocess_frame(frame)
        assert out.shape == (84, 84)
        np.testing.assert_allclose(out, 1.0, rtol=1e-4)
