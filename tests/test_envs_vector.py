"""Tests for the synchronous vectorised environment."""

import numpy as np
import pytest

from repro.ale import make_game
from repro.envs import BatchedVectorEnv, Catch, SyncVectorEnv, make_atari_env
from repro.envs.classic import MemoryCue


def _vec(n=3, seed=0):
    return SyncVectorEnv([lambda: Catch(size=5) for _ in range(n)],
                         seed=seed)


class TestSyncVectorEnv:
    def test_requires_environments(self):
        with pytest.raises(ValueError):
            SyncVectorEnv([])

    def test_reset_shape_and_dtype(self):
        vec = _vec(4)
        obs = vec.reset()
        assert obs.shape == (4, 5, 5)
        assert obs.dtype == np.float32

    def test_observations_before_reset_raises(self):
        with pytest.raises(RuntimeError):
            _ = _vec().observations

    def test_step_contract(self):
        vec = _vec(3)
        vec.reset()
        step = vec.step([1, 1, 1])
        assert step.observations.shape == (3, 5, 5)
        assert step.rewards.shape == (3,)
        assert step.dones.dtype == bool
        assert len(step.infos) == 3

    def test_action_count_validated(self):
        vec = _vec(3)
        vec.reset()
        with pytest.raises(ValueError):
            vec.step([1, 1])

    def test_done_slots_auto_reset(self):
        vec = _vec(2)
        vec.reset()
        for _ in range(4):           # Catch(5) episodes last 4 steps
            step = vec.step([1, 1])
        assert step.dones.all()
        # No exception on the next step: slots were reset.
        vec.step([1, 1])

    def test_finished_scores_reported_once(self):
        vec = _vec(2, seed=1)
        vec.reset()
        scores = []
        for _ in range(20):
            step = vec.step([1, 1])
            scores.extend(step.finished_scores)
        # 20 steps / 4-step episodes x 2 slots = 10 finished games.
        assert len(scores) == 10
        assert all(score in (-1.0, 1.0) for _, score in scores)

    def test_independent_seeding_per_slot(self):
        vec = _vec(2, seed=5)
        obs = vec.reset()
        # With distinct streams the two slots rarely share a ball column
        # across several resets; check they are not always identical.
        different = not np.array_equal(obs[0], obs[1])
        for _ in range(12):
            step = vec.step([1, 1])
            different = different or not np.array_equal(
                step.observations[0], step.observations[1])
        assert different

    def test_deterministic_under_seed(self):
        def trace(seed):
            vec = _vec(2, seed=seed)
            vec.reset()
            out = []
            for _ in range(12):
                step = vec.step([0, 2])
                out.append((step.rewards.tolist(),
                            step.dones.tolist()))
            return out
        assert trace(9) == trace(9)
        assert trace(9) != trace(10)

    def test_heterogeneous_episode_lengths(self):
        vec = SyncVectorEnv([lambda: MemoryCue(delay=1),
                             lambda: MemoryCue(delay=4)], seed=0)
        vec.reset()
        step = vec.step([0, 0])
        assert step.dones[0] and not step.dones[1]

    def test_heterogeneous_action_spaces_rejected(self):
        # Catch is Discrete(3); MemoryCue is Discrete(2).  Slot 0's
        # space sizes the policy head, so mixing must fail fast.
        with pytest.raises(ValueError, match="heterogeneous"):
            SyncVectorEnv([lambda: Catch(size=5),
                           lambda: MemoryCue(delay=2)])

    def test_same_sized_action_spaces_accepted(self):
        vec = SyncVectorEnv([lambda: Catch(size=5),
                             lambda: Catch(size=7)], seed=0)
        assert vec.num_envs == 2


# Non-integer actions must fail loudly: truncating 2.9 to 2, or parsing
# "1", would get round the integer checks of Discrete.contains and of
# the batched engine.
NON_INTEGER_ACTIONS = pytest.mark.parametrize(
    "actions", [[2.9, 1.0], ["1", "2"], np.array([2.0, 1.0]),
                [True, False]],
    ids=["float", "str", "float-array", "bool"])


@NON_INTEGER_ACTIONS
def test_sync_vector_env_rejects_non_integer_actions(actions):
    vec = _vec(2)
    vec.reset()
    with pytest.raises(ValueError):
        vec.step(actions)


@NON_INTEGER_ACTIONS
def test_sync_atari_vector_env_rejects_non_integer_actions(actions):
    vec = SyncVectorEnv([lambda: make_atari_env(make_game("breakout"))
                         for _ in range(2)], seed=0)
    vec.reset()
    with pytest.raises(ValueError):
        vec.step(actions)


@NON_INTEGER_ACTIONS
def test_batched_vector_env_rejects_non_integer_actions(actions):
    vec = BatchedVectorEnv("breakout", num_envs=2, seed=0)
    vec.reset()
    with pytest.raises(ValueError):
        vec.step(actions)
    assert (vec.engine.frame == 0).all()


def test_vector_envs_accept_numpy_integer_actions():
    actions = np.array([2, 1], dtype=np.int32)
    sync = SyncVectorEnv([lambda: make_atari_env(make_game("breakout"))
                          for _ in range(2)], seed=0)
    batched = BatchedVectorEnv("breakout", num_envs=2, seed=0)
    sync.reset()
    batched.reset()
    assert np.array_equal(sync.step(actions).observations,
                          batched.step(actions).observations)


@pytest.mark.parametrize("kind", ["sync", "batched"])
def test_returned_observations_are_never_written(kind):
    """A step leaves the previous step's observations array byte for
    byte as it was, through life-loss pseudo-resets and game-over
    resets: PAACTrainer keeps each step's array without a copy."""
    if kind == "sync":
        vec = SyncVectorEnv([lambda: make_atari_env(make_game("breakout"))
                             for _ in range(2)], seed=0)
    else:
        vec = BatchedVectorEnv("breakout", num_envs=2, seed=0)
    rng = np.random.default_rng(0)
    previous = vec.reset()
    kept = previous.copy()
    seen = set()
    for _ in range(1000):
        step = vec.step(rng.integers(0, vec.action_space.n, vec.num_envs))
        assert step.observations is vec.observations
        assert not np.shares_memory(step.observations, previous)
        assert previous.tobytes() == kept.tobytes()
        if any(info.get("life_lost") for info in step.infos):
            seen.add("life lost")
        if step.finished_scores:
            seen.add("game over")
        if len(seen) == 2:
            break
        previous = step.observations
        kept = previous.copy()
    assert seen == {"life lost", "game over"}
