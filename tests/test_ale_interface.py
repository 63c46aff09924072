"""Tests for the ALE-style interface over the simulated games."""

import numpy as np
import pytest

from repro.ale import SimulatedALE, make_game
from repro.ale.vec.base import ALE_ACTIONS


class TestSimulatedALE:
    def test_minimal_action_set_codes(self):
        ale = SimulatedALE("pong", seed=0)
        codes = ale.getMinimalActionSet()
        assert codes[0] == ALE_ACTIONS.index("NOOP") == 0
        assert len(codes) == 6
        assert codes == sorted(codes)

    def test_legal_action_set_is_full_18(self):
        ale = SimulatedALE("breakout", seed=0)
        assert ale.getLegalActionSet() == list(range(18))

    def test_act_returns_reward_and_advances(self):
        ale = SimulatedALE("breakout", seed=0)
        before = ale.getEpisodeFrameNumber()
        reward = ale.act(0)
        assert isinstance(reward, float)
        assert ale.getEpisodeFrameNumber() == before + 1

    def test_screen_formats(self):
        ale = SimulatedALE("seaquest", seed=0)
        rgb = ale.getScreenRGB()
        gray = ale.getScreenGrayscale()
        assert rgb.shape == (210, 160, 3)
        assert gray.shape == (210, 160)
        assert gray.dtype == np.uint8

    def test_lives_and_game_over(self):
        ale = SimulatedALE("pong", seed=0)
        assert ale.lives() == 1
        assert not ale.game_over()

    def test_reset_game_restarts(self):
        ale = SimulatedALE("space_invaders", seed=0)
        for _ in range(50):
            ale.act(1)
        ale.reset_game()
        assert ale.getEpisodeFrameNumber() == 0

    def test_unknown_action_code_maps_to_noop(self):
        ale = SimulatedALE("breakout", seed=0)
        ale.act(17)  # DOWNLEFTFIRE is not in Breakout's minimal set
        assert ale.getEpisodeFrameNumber() == 1

    def test_sticky_actions_repeat(self):
        game = make_game("pong")
        ale = SimulatedALE(game, seed=0)
        up = ALE_ACTIONS.index("RIGHT")   # Pong maps RIGHT to up
        ale.act(up)
        y_after_up = game.engine.agent_y[0]
        # Force stickiness: the next request is ignored, UP repeats.
        ale.repeat_action_probability = 1.0
        ale.act(ALE_ACTIONS.index("LEFT"))
        assert game.engine.agent_y[0] < y_after_up  # still moving up

    def test_full_episode_via_ale_api(self):
        ale = SimulatedALE("pong", seed=1)
        actions = ale.getMinimalActionSet()
        rng = np.random.default_rng(0)
        steps = 0
        while not ale.game_over() and steps < 50_000:
            ale.act(int(rng.choice(actions)))
            steps += 1
        assert ale.game_over()

    def test_requires_known_game(self):
        with pytest.raises(KeyError):
            SimulatedALE("defender")
