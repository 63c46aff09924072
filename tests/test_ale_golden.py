"""Golden trace digests pin the six simulated Atari games.

Each digest is the first 16 hex digits of a SHA-256 over one seeded
trace: the bytes of every frame (reset frames included), then reward,
score, done, lives and the frame counter, floats written as
``float.hex``.  Four views of the same engine are pinned:

* *raw* — ``make_game(name)`` per seed under a seeded action stream,
  reset on game over;
* *masked* — one ``make_vec_game(name, 2)`` seeded with the raw seeds
  that advances random subsets of its slots; every slot must hash to
  the raw digest of its seed, so sub-batch stepping is pinned to the
  same trace as whole-batch and batch-1 stepping;
* *wrapped* — a ``SyncVectorEnv`` of ``make_atari_env`` stacks,
  hashing observations, rewards, dones, infos and finished scores
  (``tests/test_envs_batched.py`` pins ``BatchedVectorEnv`` to it);
* *sticky* — ``SimulatedALE`` with sticky actions, whose repeat rolls
  and the game dynamics draw from one generator in one order.

A dynamics or rendering change that moves any bit fails here and
prints the new digest.
"""

import hashlib

import numpy as np
import pytest

from repro.ale import GAME_NAMES, SimulatedALE, make_game
from repro.ale.vec import make_vec_game
from repro.envs import SyncVectorEnv, make_atari_env

SEEDS = (1, 4)
#: Frames per raw trace: enough for each game's seed-1 trace to cross a
#: game over (random play in Pong and Beam Rider survives longest).
STEPS = {"beam_rider": 1400, "breakout": 700, "pong": 1500, "qbert": 400,
         "seaquest": 900, "space_invaders": 400}

RAW = {
    ("beam_rider", 1): "b50f096d8ce8e4da",
    ("beam_rider", 4): "143c1deb8c702317",
    ("breakout", 1): "a947afd787b4ab13",
    ("breakout", 4): "21949c5ca9e4fbe9",
    ("pong", 1): "6b87770ddf4a1ec2",
    ("pong", 4): "aaadd772a6d9cf36",
    ("qbert", 1): "ad76476ed41aa011",
    ("qbert", 4): "496d4bf2e326732a",
    ("seaquest", 1): "16c72654653edb28",
    ("seaquest", 4): "28d781771aef6f0b",
    ("space_invaders", 1): "bd6f63342b154305",
    ("space_invaders", 4): "01f8f8dbd30c8a09",
}

WRAPPED_SEED = 17
WRAPPED_ENVS = 3
WRAPPED_STEPS = 100
WRAPPED = {
    "beam_rider": "1d115b8ec737db19",
    "breakout": "04ae437266b3bc40",
    "pong": "caebdf90d184559d",
    "qbert": "67a725287ce70ccf",
    "seaquest": "d999031eeb691bc2",
    "space_invaders": "71e58502e75516a1",
}

STICKY_SEED = 5
STICKY_STEPS = 400
STICKY = {
    "beam_rider": "1dc1e7c3d8fad50c",
    "breakout": "e22f4e4db01ed1f1",
    "pong": "b928648cfb2859bc",
    "qbert": "658b64869d1b2fc4",
    "seaquest": "7b6562524553f730",
    "space_invaders": "86734ee04556bf38",
}


def _text(value) -> str:
    return float(value).hex() if isinstance(value, float) else repr(value)


class _Trace:
    """A running SHA-256 over frames and per-frame game state."""

    def __init__(self):
        self._hash = hashlib.sha256()

    def update(self, data: bytes) -> None:
        self._hash.update(data)

    def record(self, frame, reward, score, done, lives, counter) -> None:
        self._hash.update(np.ascontiguousarray(frame).tobytes())
        self._hash.update(f"{float(reward).hex()} {float(score).hex()} "
                          f"{bool(done):d} {int(lives)} "
                          f"{int(counter)};".encode())

    def digest(self) -> str:
        return self._hash.hexdigest()[:16]


def _actions(name: str, seed: int, n: int) -> np.ndarray:
    return np.random.default_rng(seed + 100).integers(0, n,
                                                       size=STEPS[name])


def _raw_trace(name: str, seed: int):
    """(digest, game overs) of one game under its seeded stream."""
    game = make_game(name)
    game.seed(seed)
    trace = _Trace()

    def record_reset():
        frame = game.reset()
        trace.record(frame, 0.0, game.score, game.game_over, game.lives,
                     game.frame)

    record_reset()
    game_overs = 0
    for action in _actions(name, seed, game.action_space.n):
        frame, reward, done, info = game.step(int(action))
        trace.record(frame, reward, info["score"], done, info["lives"],
                     game.frame)
        if done:
            game_overs += 1
            record_reset()
    return trace.digest(), game_overs


def _check(digest: str, expected: str, case) -> None:
    assert digest == expected, f"{case}: new digest {digest!r}"


@pytest.mark.parametrize("name", GAME_NAMES)
def test_raw_game_traces(name):
    game_overs = 0
    for seed in SEEDS:
        digest, overs = _raw_trace(name, seed)
        _check(digest, RAW[(name, seed)], (name, seed))
        game_overs += overs
    assert game_overs >= 1, f"{name}: no case crosses a game over"


@pytest.mark.parametrize("name", GAME_NAMES)
def test_masked_slots_match_raw(name):
    """Random slot subsets of one engine replay every raw trace."""
    vec = make_vec_game(name, len(SEEDS))
    vec.seed(list(SEEDS))
    traces = [_Trace() for _ in SEEDS]

    def record_reset(slot):
        traces[slot].record(vec.frames[slot], 0.0, vec.score[slot],
                            vec.game_over[slot], vec.lives[slot],
                            vec.frame[slot])

    vec.reset()
    for slot in range(len(SEEDS)):
        record_reset(slot)
    plans = [_actions(name, seed, vec.action_space.n) for seed in SEEDS]
    taken = np.zeros(len(SEEDS), dtype=np.int64)
    picker = np.random.default_rng(7)
    while (taken < STEPS[name]).any():
        open_slots = np.nonzero(taken < STEPS[name])[0]
        slots = open_slots[picker.random(open_slots.size) < 0.5]
        if slots.size == 0:
            continue
        actions = np.array([plans[slot][taken[slot]] for slot in slots])
        rewards, dones = vec.step(actions, slots)
        for slot, reward, done in zip(slots, rewards, dones):
            traces[slot].record(vec.frames[slot], reward, vec.score[slot],
                                done, vec.lives[slot], vec.frame[slot])
        taken[slots] += 1
        finished = slots[dones]
        if finished.size:
            vec.reset_slots(finished)
            for slot in finished:
                record_reset(slot)
    for slot, seed in enumerate(SEEDS):
        _check(traces[slot].digest(), RAW[(name, seed)],
               (name, seed, "masked"))


@pytest.mark.parametrize("name", GAME_NAMES)
def test_wrapped_vector_trace(name):
    env = SyncVectorEnv([lambda: make_atari_env(make_game(name))
                         for _ in range(WRAPPED_ENVS)], seed=WRAPPED_SEED)
    trace = _Trace()
    trace.update(env.reset().tobytes())
    rng = np.random.default_rng(WRAPPED_SEED)
    for _ in range(WRAPPED_STEPS):
        actions = rng.integers(0, env.action_space.n, size=WRAPPED_ENVS)
        step = env.step(actions.tolist())
        trace.update(step.observations.tobytes())
        trace.update(step.rewards.tobytes())
        trace.update(step.dones.tobytes())
        infos = [sorted((key, _text(value)) for key, value in info.items())
                 for info in step.infos]
        finished = [(slot, _text(score))
                    for slot, score in step.finished_scores]
        trace.update(repr((infos, finished)).encode())
    _check(trace.digest(), WRAPPED[name], (name, "wrapped"))


@pytest.mark.parametrize("name", GAME_NAMES)
def test_sticky_action_trace(name):
    ale = SimulatedALE(name, seed=STICKY_SEED,
                       repeat_action_probability=0.25)
    trace = _Trace()

    def record(reward):
        trace.record(ale.getScreenRGB(), reward, ale.game.score,
                     ale.game_over(), ale.lives(),
                     ale.getEpisodeFrameNumber())

    record(0.0)
    codes = np.random.default_rng(STICKY_SEED).integers(
        0, len(ale.getLegalActionSet()), size=STICKY_STEPS)
    for code in codes:
        record(ale.act(int(code)))
        if ale.game_over():
            ale.reset_game()
            record(0.0)
    _check(trace.digest(), STICKY[name], (name, "sticky"))
