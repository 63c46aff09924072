"""BatchedVectorEnv as a bit-exact drop-in for SyncVectorEnv.

N slots stepped as one batch must give, per slot, what N one-slot
``make_atari_env`` envs give in a ``SyncVectorEnv``: same observations,
rewards, dones, infos and finished scores under the same seed and
actions.  ``Catch``-style toy envs are not covered (the engine wraps the
SoA Atari games only).
"""

import numpy as np
import pytest

from repro.ale import GAME_NAMES, make_game
from repro.envs import BatchedVectorEnv, SyncVectorEnv, make_atari_env
from repro.envs.batched import BatchPreprocessor
from repro.envs.preprocessing import preprocess_frame

SEED = 17
BATCH = 3


def _scalar_vec(name, batch, seed, **kwargs):
    return SyncVectorEnv(
        [lambda: make_atari_env(make_game(name), **kwargs)
         for _ in range(batch)],
        seed=seed)


def _assert_steps_match(step_a, step_b, context):
    assert np.array_equal(step_a.observations, step_b.observations), context
    assert np.array_equal(step_a.rewards, step_b.rewards), context
    assert np.array_equal(step_a.dones, step_b.dones), context
    assert step_a.infos == step_b.infos, context
    assert step_a.finished_scores == step_b.finished_scores, context


def _run_pair(name, steps=150, batch=BATCH, seed=SEED, **kwargs):
    batched = BatchedVectorEnv(name, num_envs=batch, seed=seed, **kwargs)
    scalar = _scalar_vec(name, batch, seed, **kwargs)
    obs_b = batched.reset()
    obs_s = scalar.reset()
    assert obs_b.dtype == obs_s.dtype == np.float32
    assert np.array_equal(obs_b, obs_s)
    rng = np.random.default_rng(99)
    for step in range(steps):
        actions = rng.integers(0, batched.action_space.n, size=batch)
        _assert_steps_match(batched.step(actions),
                            scalar.step(actions.tolist()),
                            (name, step, kwargs))
    batched.close()
    scalar.close()


@pytest.mark.parametrize("name", GAME_NAMES)
def test_default_stack_bit_identical(name):
    _run_pair(name)


def test_time_limit_truncation():
    _run_pair("pong", steps=120, max_episode_steps=25)


def test_capped_episode_ends_its_game():
    """A cut at ``max_episode_steps`` ends the game, as ``TimeLimit``
    inside ``EpisodicLife`` does in OpenAI Baselines: the finished score
    is the game's score at the cap, and the restart resets the game."""
    env = BatchedVectorEnv("pong", num_envs=1, seed=0, max_episode_steps=25)
    env.reset()
    rng = np.random.default_rng(0)
    capped = 0
    for _ in range(100):
        step = env.step(rng.integers(0, env.action_space.n, size=1))
        if step.infos[0].get("truncated"):
            capped += 1
            assert step.finished_scores == [(0, step.infos[0]["score"])]
            assert env.engine.score[0] == 0.0
    assert capped == 4


def test_reset_after_steps_matches():
    """A mid-run reset (the life-loss pseudo-reset regime) stays aligned."""
    name = "breakout"
    batched = BatchedVectorEnv(name, num_envs=2, seed=SEED)
    scalar = _scalar_vec(name, 2, SEED)
    batched.reset()
    scalar.reset()
    rng = np.random.default_rng(3)
    for _ in range(60):
        actions = rng.integers(0, batched.action_space.n, size=2)
        batched.step(actions)
        scalar.step(actions.tolist())
    assert np.array_equal(batched.reset(), scalar.reset())


class TestConstructor:
    def test_name_requires_num_envs(self):
        with pytest.raises(ValueError):
            BatchedVectorEnv("pong")

    def test_num_envs_must_match_a_prebuilt_engine(self):
        from repro.ale.vec import make_vec_game
        with pytest.raises(ValueError, match="5.*2"):
            BatchedVectorEnv(make_vec_game("pong", 2), num_envs=5)
        assert BatchedVectorEnv(make_vec_game("pong", 2),
                                num_envs=2).num_envs == 2

    def test_accepts_prebuilt_engine(self):
        from repro.ale.vec import make_vec_game
        engine = make_vec_game("pong", 2)
        vec = BatchedVectorEnv(engine, seed=SEED)
        assert vec.num_envs == 2
        assert np.array_equal(vec.reset(),
                              _scalar_vec("pong", 2, SEED).reset())

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BatchedVectorEnv("pong", num_envs=2, max_episode_steps=0)

    def test_observations_before_reset_raises(self):
        with pytest.raises(RuntimeError):
            _ = BatchedVectorEnv("pong", num_envs=1, seed=0).observations

    def test_action_count_validated(self):
        vec = BatchedVectorEnv("pong", num_envs=2, seed=0)
        vec.reset()
        with pytest.raises(ValueError):
            vec.step([0])


class TestBatchPreprocessor:
    def test_matches_scalar_preprocess_frame(self):
        rng = np.random.default_rng(0)
        frames = rng.integers(0, 256, size=(4, 210, 160, 3),
                              dtype=np.uint8)
        batched = BatchPreprocessor(210, 160, 84, 84)(frames)
        for index in range(4):
            assert np.array_equal(batched[index],
                                  preprocess_frame(frames[index]))
