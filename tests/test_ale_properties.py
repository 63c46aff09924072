"""Property-based tests over the simulated games: arbitrary action
sequences must never violate the game invariants."""

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

from repro.ale import GAME_NAMES, make_game

action_sequences = st.lists(st.integers(0, 17), min_size=1, max_size=120)


@pytest.mark.parametrize("name", GAME_NAMES)
class TestGameInvariants:
    @hypothesis.given(seed=st.integers(0, 2 ** 31 - 1),
                      actions=action_sequences)
    @hypothesis.settings(max_examples=10, deadline=None)
    def test_arbitrary_play_preserves_invariants(self, name, seed,
                                                 actions):
        game = make_game(name)
        game.seed(seed)
        game.reset()
        n_actions = game.action_space.n
        prev_lives = game.lives
        for raw in actions:
            if game.game_over:
                game.reset()
                prev_lives = game.lives
            obs, reward, done, info = game.step(raw % n_actions)
            # Invariants.
            assert obs.dtype == np.uint8
            assert obs.shape == (210, 160, 3)
            assert np.isfinite(reward)
            assert 0 <= info["lives"] <= game.engine.START_LIVES
            assert info["lives"] <= prev_lives or done
            prev_lives = info["lives"]
            assert done == game.game_over

    @hypothesis.given(seed=st.integers(0, 2 ** 31 - 1))
    @hypothesis.settings(max_examples=5, deadline=None)
    def test_reset_always_restores_full_lives(self, name, seed):
        game = make_game(name)
        game.seed(seed)
        game.reset()
        rng = np.random.default_rng(seed)
        for _ in range(300):
            if game.game_over:
                break
            game.step(game.action_space.sample(rng))
        game.reset()
        assert game.lives == game.engine.START_LIVES
        assert game.frame == 0
        assert game.score == 0.0

    def test_score_matches_cumulative_rewards(self, name):
        game = make_game(name)
        game.seed(3)
        game.reset()
        rng = np.random.default_rng(3)
        total = 0.0
        for _ in range(500):
            _, reward, done, info = game.step(
                game.action_space.sample(rng))
            total += reward
            assert info["score"] == pytest.approx(total)
            if done:
                break

    def test_noop_never_scores_positive_in_most_games(self, name):
        """Pure NOOP play never earns points (Q*bert colours its start
        cube at reset, Beam Rider escapes may recycle — but no positive
        reward should appear from standing still in any game except by
        the scripted opponent's errors in Pong, which only yields
        negative rewards for the idle side)."""
        game = make_game(name)
        game.seed(5)
        game.reset()
        for _ in range(600):
            _, reward, done, _ = game.step(0)
            assert reward <= 0.0
            if done:
                break
