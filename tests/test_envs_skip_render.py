"""The premises under which a frame-skip cycle skips renders.

``BatchedVectorEnv._skip_slots`` renders a slot's sub-frame only where
an observation can read it: the last two sub-frames of a cycle, and
before them only where the slot's game ended or
:meth:`~repro.ale.vec.base.VecAtariGame.may_end` says it may end at the
next sub-frame.  That is exact if

* a render is a function of the slot's state (and draws no random
  numbers), so a frame drawn after skipped renders equals the frame an
  engine that renders every frame draws;
* ``may_end`` never says False for a slot whose next frame ends its
  game.

``tests/test_envs_golden.py`` pins the observations themselves by
digest.
"""

import numpy as np
import pytest

from repro.ale.vec import GAME_NAMES, make_vec_game
from repro.envs.batched import FRAME_SKIP, BatchedVectorEnv

SEEDS = [11, 12, 13]


def _live_subset(engine, rng):
    """A random sub-batch of the engine's live slots (maybe empty)."""
    live = np.nonzero(~engine.game_over)[0]
    return live[rng.random(live.size) < 0.75]


@pytest.mark.parametrize("name", GAME_NAMES)
def test_render_is_a_function_of_state(name):
    """An engine rendered only every third frame draws what an engine
    rendered every frame draws, under sub-batch stepping and resets."""
    every = make_vec_game(name, len(SEEDS))
    lazy = make_vec_game(name, len(SEEDS))
    for engine in (every, lazy):
        engine.seed(SEEDS)
        engine.reset()
    rng = np.random.default_rng(3)
    compared = 0
    for frame in range(1, 401):
        slots = _live_subset(every, rng)
        actions = rng.integers(0, every.action_space.n, size=slots.size)
        if slots.size:
            every.step(actions, slots)
            lazy._advance(actions, slots, render=False)
        if frame % 3 == 0:
            lazy.render_slots(lazy._all_slots)
            assert np.array_equal(lazy.frames, every.frames), frame
            compared += 1
        over = np.nonzero(every.game_over)[0]
        if frame % 97 == 0:
            over = np.union1d(over, [frame % len(SEEDS)])
        if over.size:
            every.reset_slots(over)
            lazy.reset_slots(over)
    assert compared > 100
    for a, b in zip(every.rngs, lazy.rngs):
        assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("max_frames", [None, 150])
@pytest.mark.parametrize("name", GAME_NAMES)
def test_may_end_is_never_wrong(name, max_frames):
    """No live slot ends its game at frame t + 1 after ``may_end`` said
    False for it at frame t, whether the game ends by its own rules or
    at a lowered frame cap."""
    engine = make_vec_game(name, 4)
    if max_frames is not None:
        engine.MAX_FRAMES = max_frames
    engine.seed([21, 22, 23, 24])
    engine.reset()
    rng = np.random.default_rng(7)
    ends = skipped = 0
    for _ in range(1000):
        slots = _live_subset(engine, rng)
        if slots.size:
            may_end = engine.may_end(slots)
            assert may_end.shape == slots.shape
            skipped += int((~may_end).sum())
            _, dones = engine.step(
                rng.integers(0, engine.action_space.n, size=slots.size),
                slots)
            assert not (dones & ~may_end).any(), slots[dones & ~may_end]
        over = np.nonzero(engine.game_over)[0]
        if over.size:
            ends += over.size
            engine.reset_slots(over)
    # Pong and Beam Rider take ~2,000 frames to end by their rules.
    if max_frames is not None or name == "breakout":
        assert ends > 0
    if name == "breakout":
        assert skipped > 0


class _RenderLog:
    """Records the slots of every ``_render_slots`` call of one engine."""

    def __init__(self, engine):
        self.calls = []
        draw = engine._render_slots

        def logged(slots):
            self.calls.append(slots.tolist())
            draw(slots)

        engine._render_slots = logged


class TestSkippedRenders:
    def test_breakout_renders_only_the_last_two_sub_frames(self):
        vec = BatchedVectorEnv("breakout", num_envs=16, seed=1)
        vec.reset()
        assert (vec.engine.lives > 1).all()
        log = _RenderLog(vec.engine)
        step = vec.step(np.ones(16, dtype=np.int64))
        assert not step.dones.any()
        assert log.calls == [list(range(16))] * 2

    def test_a_slot_on_its_last_life_renders_every_sub_frame(self):
        vec = BatchedVectorEnv("breakout", num_envs=4, seed=1)
        vec.reset()
        vec.engine.lives[2] = 1
        vec._lives[2] = 1
        log = _RenderLog(vec.engine)
        step = vec.step(np.zeros(4, dtype=np.int64))
        assert not step.dones.any()
        assert log.calls == [[2], [2], [0, 1, 2, 3], [0, 1, 2, 3]]

    def test_a_game_without_may_end_renders_every_sub_frame(self):
        vec = BatchedVectorEnv("pong", num_envs=4, seed=1)
        vec.reset()
        log = _RenderLog(vec.engine)
        step = vec.step(np.zeros(4, dtype=np.int64))
        assert not step.dones.any()
        assert log.calls == [[0, 1, 2, 3]] * FRAME_SKIP


class TestStepChecks:
    """The vector env checks actions and slots once per step."""

    def test_out_of_range_action_steps_nothing(self):
        vec = BatchedVectorEnv("breakout", num_envs=2, seed=0)
        vec.reset()
        for actions in ([0, 4], [-1, 0]):
            with pytest.raises(ValueError, match="invalid action"):
                vec.step(actions)
        assert (vec.engine.frame == 0).all()

    def test_finished_slot_raises(self):
        vec = BatchedVectorEnv("pong", num_envs=2, seed=0)
        with pytest.raises(RuntimeError, match="reset"):
            vec.step([0, 0])
        vec.reset()
        vec.engine.game_over[1] = True
        with pytest.raises(RuntimeError, match="finished slot"):
            vec.step([0, 0])
        assert (vec.engine.frame == 0).all()
