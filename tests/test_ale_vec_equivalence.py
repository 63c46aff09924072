"""Slot independence of the batched games.

The contract (``repro.ale.vec.base``): slot ``i`` of a
:class:`~repro.ale.vec.base.VecAtariGame`, seeded like a scalar
``make_game`` env and fed the same actions, produces bit-identical
frames, rewards, lives, scores and game-over flags at every step.  The
scalar env is the B=1 view of its own one-slot engine, so these tests
check that batching couples no slot to another.  Each game is driven
through whole episodes (resets included) with a per-slot action stream
so the slots desynchronise — the regime the masked sub-batch stepping
exists for.  ``tests/test_ale_golden.py`` pins the traces themselves.
"""

import numpy as np
import pytest

from repro.ale import GAME_NAMES, make_game
from repro.ale.vec import make_vec_game

BATCH = 3
STEPS = 250
SEED = 17


def _slot_seed(index):
    return SEED * 1009 + index


def _actions(rng, n):
    return rng.integers(0, n, size=STEPS)


@pytest.mark.parametrize("name", GAME_NAMES)
class TestSlotBitEquivalence:
    def test_lockstep_trace_matches_scalar(self, name):
        """All slots stepped together, full episode lifecycle."""
        vec = make_vec_game(name, BATCH)
        vec.seed([_slot_seed(i) for i in range(BATCH)])
        vec.reset()
        n = vec.action_space.n
        plan = np.stack([_actions(np.random.default_rng(100 + i), n)
                         for i in range(BATCH)], axis=1)

        scalars = []
        for index in range(BATCH):
            env = make_game(name)
            env.seed(_slot_seed(index))
            env.reset()
            scalars.append(env)

        for step in range(STEPS):
            actions = plan[step]
            rewards, dones = vec.step(actions)
            for index, env in enumerate(scalars):
                frame, reward, done, info = env.step(int(actions[index]))
                assert reward == rewards[index], (name, step, index)
                assert done == dones[index], (name, step, index)
                assert info["lives"] == vec.lives[index]
                assert info["score"] == vec.score[index]
                assert np.array_equal(frame, vec.frames[index]), \
                    (name, step, index)
            done_idx = np.nonzero(dones)[0]
            if done_idx.size:
                vec.reset_slots(done_idx)
                for index in done_idx:
                    reset_frame = scalars[index].reset()
                    assert np.array_equal(reset_frame,
                                          vec.frames[index])

    def test_masked_subbatch_stepping(self, name):
        """Stepping a slot subset leaves the other slots untouched and
        still matches the scalar trace of the stepped slot."""
        vec = make_vec_game(name, BATCH)
        vec.seed([_slot_seed(i) for i in range(BATCH)])
        vec.reset()
        frozen = vec.frames[2].copy()
        frozen_state = (int(vec.frame[2]), float(vec.score[2]))

        env = make_game(name)
        env.seed(_slot_seed(0))
        env.reset()
        rng = np.random.default_rng(7)
        for _ in range(60):
            action = int(rng.integers(0, vec.action_space.n))
            rewards, dones = vec.step([action], np.array([0]))
            frame, reward, done, _ = env.step(action)
            assert reward == rewards[0]
            assert done == dones[0]
            assert np.array_equal(frame, vec.frames[0])
            if done:
                env.reset()
                vec.reset_slots(np.array([0]))
        assert np.array_equal(vec.frames[2], frozen)
        assert (int(vec.frame[2]), float(vec.score[2])) == frozen_state
