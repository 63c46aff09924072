"""Behavioural tests for the six simulated Atari games.

The scalar tests drive ``make_game`` (a batch-1 view) and read game
state from its engine's slot 0; ``TestVecProtocol`` covers the batched
engine's own stepping protocol.
"""

import numpy as np
import pytest

from repro.ale import GAME_NAMES, make_game
from repro.ale.games.base import AtariGame
from repro.ale.vec import (
    BatchScreen,
    VecBeamRider,
    VecSpaceInvaders,
    make_vec_game,
)
from repro.ale.vec.base import ALE_ACTIONS


def _game(name, seed=0):
    game = make_game(name)
    game.seed(seed)
    game.reset()
    return game


class TestScreen:
    def test_fill_rect_clips_to_frame(self):
        screen = BatchScreen(1, height=10, width=10)
        screen.fill_rect(0, -5, -5, 8, 8, (10, 20, 30))
        assert tuple(screen.pixels[0, 0, 0]) == (10, 20, 30)
        assert tuple(screen.pixels[0, 3, 3]) == (0, 0, 0)

    def test_fill_rect_offscreen_noop(self):
        screen = BatchScreen(2, height=10, width=10)
        screen.fill_rect_slots(np.arange(2), 20, 20, 5, 5, (255, 255, 255))
        assert screen.pixels.sum() == 0

    def test_clear(self):
        screen = BatchScreen(2, height=4, width=4)
        screen.clear_slots(np.array([1]), (1, 2, 3))
        assert (screen.pixels[1] == (1, 2, 3)).all()
        assert screen.pixels[0].sum() == 0


class TestGameContract:
    """Every game honours the AtariGame/Env contract."""

    @pytest.fixture(params=GAME_NAMES)
    def game(self, request):
        game = make_game(request.param)
        game.seed(123)
        return game

    def test_reset_returns_full_screen(self, game):
        obs = game.reset()
        assert obs.shape == (210, 160, 3)
        assert obs.dtype == np.uint8

    def test_minimal_action_set_is_valid(self, game):
        for meaning in game.action_meanings():
            assert meaning in ALE_ACTIONS

    def test_step_contract(self, game):
        game.reset()
        obs, reward, done, info = game.step(0)
        assert obs.shape == (210, 160, 3)
        assert type(reward) is float
        assert type(done) is bool
        assert type(info["lives"]) is int
        assert type(info["score"]) is float
        # A fresh frame each step, not a view of the engine's buffer.
        assert not np.shares_memory(obs, game.engine.frames)
        assert not np.shares_memory(obs, game.step(0)[0])

    def test_rng_is_the_engine_generator(self, game):
        assert game.rng is game.engine.rngs[0]
        game.seed(7)
        assert game.rng is game.engine.rngs[0]

    def test_invalid_action_rejected(self, game):
        game.reset()
        for action in (99, -1, 1.0, 2.9, "1", None):
            with pytest.raises(ValueError):
                game.step(action)
        assert game.frame == 0

    def test_step_before_reset_raises(self, game):
        fresh = AtariGame(type(game.engine)(1))
        with pytest.raises(RuntimeError):
            fresh.step(0)

    def test_determinism_under_seed(self, game):
        def trace(seed):
            g = AtariGame(type(game.engine)(1))
            g.seed(seed)
            g.reset()
            rng = np.random.default_rng(99)
            out = []
            for _ in range(200):
                _, r, done, info = g.step(g.action_space.sample(rng))
                out.append((r, done, info["lives"]))
                if done:
                    g.reset()
            return out

        assert trace(5) == trace(5)

    def test_screen_changes_over_time(self, game):
        game.reset()
        first = game.step(0)[0]
        for _ in range(30):
            game.step(game.action_space.sample(np.random.default_rng(0)))
        later = game.screen.copy()
        assert (first != later).any()

    def test_random_play_terminates(self, game):
        game.reset()
        rng = np.random.default_rng(11)
        for _ in range(game.engine.MAX_FRAMES + 1):
            _, _, done, _ = game.step(game.action_space.sample(rng))
            if done:
                break
        assert game.game_over


class TestPong:
    def test_action_set_matches_ale(self):
        assert len(make_game("pong").action_meanings()) == 6

    def test_opponent_scores_against_idle_agent(self):
        game = _game("pong")
        total = 0.0
        for _ in range(5000):
            _, reward, done, _ = game.step(0)
            total += reward
            if done:
                break
        assert total < 0          # idle play loses points

    def test_game_ends_at_21(self):
        game = _game("pong")
        while not game.game_over:
            game.step(0)
        engine = game.engine
        assert max(engine.agent_score[0], engine.opponent_score[0]) == 21


class TestBreakout:
    def test_fire_launches_ball(self):
        game = _game("breakout")
        assert not game.engine.ball_in_play[0]
        game.step(1)              # FIRE
        assert game.engine.ball_in_play[0]

    def test_ball_miss_costs_life(self):
        game = _game("breakout")
        game.step(1)
        lives = game.lives
        while game.lives == lives and not game.game_over:
            game.step(0)          # never move: eventually miss
        assert game.lives == lives - 1

    def test_bricks_score_by_row(self):
        game = _game("breakout", seed=1)
        # knock bricks by simulating ball at a brick location
        game.step(1)
        rewards = set()
        for _ in range(20000):
            _, r, done, _ = game.step(
                game.action_space.sample(game.rng))
            if r > 0:
                rewards.add(r)
            if done:
                break
        assert rewards <= {1.0, 4.0, 7.0}
        assert rewards            # at least one brick hit


class TestSpaceInvaders:
    def test_shooting_scores(self):
        game = _game("space_invaders")
        total = 0.0
        for _ in range(3000):
            _, r, done, _ = game.step(1)   # FIRE repeatedly
            total += r
            if done:
                break
        assert total > 0

    def test_row_scores_match_cartridge(self):
        from repro.ale.vec.space_invaders import _ROW_SCORES
        assert _ROW_SCORES == (30, 25, 20, 15, 10, 5)


class TestQbert:
    def test_hop_colors_cube_and_scores(self):
        game = _game("qbert")
        total = 0.0
        # hop down-right repeatedly (action DOWN maps to a downward hop)
        for _ in range(60):
            _, r, done, _ = game.step(5)
            total += r
            if done:
                break
        assert total >= game.engine.CUBE_SCORE

    def test_hop_off_pyramid_costs_life(self):
        game = _game("qbert")
        lives = game.lives
        for _ in range(40):
            _, _, done, _ = game.step(2)   # UP from the apex: off the top
            if game.lives < lives or done:
                break
        assert game.lives == lives - 1


class TestSeaquest:
    def test_oxygen_runs_out_underwater(self):
        game = _game("seaquest")
        lives = game.lives
        for _ in range(int(game.engine.OXYGEN_MAX) + 200):
            game.step(5)          # DOWN: stay under water
            if game.lives < lives:
                break
        assert game.lives == lives - 1

    def test_surface_refills_oxygen(self):
        game = make_game("seaquest")
        engine = game.engine
        game.seed(0)
        engine.SPAWN_PROBABILITY = 0.0   # no sharks: isolate the oxygen loop
        engine.DIVER_PROBABILITY = 0.0
        game.reset()
        for _ in range(100):
            game.step(0)          # idle below the surface: oxygen drains
        low = engine.oxygen[0]
        assert low < engine.OXYGEN_MAX
        for _ in range(200):
            game.step(2)          # UP to the surface
        assert engine.oxygen[0] == engine.OXYGEN_MAX


class TestBeamRider:
    def test_sector_size_is_15(self):
        assert VecBeamRider.SECTOR_SIZE == 15

    def test_shooting_enemies_scores(self):
        game = _game("beam_rider")
        total = 0.0
        rng = np.random.default_rng(0)
        for _ in range(5000):
            _, r, done, _ = game.step(int(rng.choice([1, 2, 3])))
            total += r
            if done:
                break
        assert total > 0


class TestRegistry:
    def test_all_six_games_present(self):
        assert len(GAME_NAMES) == 6

    def test_make_game_normalises_names(self):
        assert isinstance(make_game("Space-Invaders").engine,
                          VecSpaceInvaders)
        assert isinstance(make_game("beam_rider").engine, VecBeamRider)

    def test_unknown_game_raises(self):
        with pytest.raises(KeyError):
            make_game("pitfall")

    def test_view_needs_batch_one(self):
        with pytest.raises(ValueError):
            AtariGame(make_vec_game("pong", 2))


@pytest.mark.parametrize("name", GAME_NAMES)
def test_reset_frame_matches_view(name):
    """Each slot of a batched reset is the batch-1 reset of its seed."""
    vec = make_vec_game(name, 2)
    vec.seed([11, 12])
    frames = vec.reset()
    for index in range(2):
        game = make_game(name)
        game.seed(11 + index)
        assert np.array_equal(game.reset(), frames[index])
        assert vec.lives[index] == game.lives


class TestVecProtocol:
    def test_step_on_finished_slot_raises(self):
        vec = make_vec_game("pong", 1)
        vec.seed([0])
        vec.reset()
        vec.game_over[0] = True
        with pytest.raises(RuntimeError):
            vec.step([0])

    def test_action_validation(self):
        vec = make_vec_game("breakout", 2)
        vec.seed([0, 1])
        vec.reset()
        with pytest.raises(ValueError):
            vec.step([0])                        # wrong count
        with pytest.raises(ValueError):
            vec.step([0, 99])                    # out of range
        for actions in ([1.9, 0], ["1", "0"], [1.0, 0.0]):
            with pytest.raises(ValueError):
                vec.step(actions)                # not integers
        assert (vec.frame == 0).all()
        vec.step(np.array([1, 0], dtype=np.uint8))

    def test_seed_count_validation(self):
        vec = make_vec_game("qbert", 2)
        with pytest.raises(ValueError):
            vec.seed([1])

    def test_unknown_game(self):
        with pytest.raises(KeyError):
            make_vec_game("tetris", 2)

    def test_frames_is_shared_view(self):
        vec = make_vec_game("pong", 2)
        vec.seed([0, 1])
        vec.reset()
        assert vec.frames is vec.screen.pixels
