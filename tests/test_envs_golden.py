"""Golden digests pin the Atari preprocessing pipeline end to end.

Max-of-two frame skip, life-loss episodes, grayscale 84x84, the 4-frame
stack, clipped rewards and the episode cap are pinned here as traces of
what an agent sees, each hashed to the first 16 hex digits of a
SHA-256 (floats written as ``float.hex``):

* *scalar* — one ``make_atari_env`` per game, driven as
  :func:`repro.core.evaluate_policy` drives it: reseed, then reset, at
  every episode.  The first episode runs to a game over, the second is
  cut short mid-game, so the third reseeds and resets a game that goes
  on.  The trace hashes every observation, the stack returned at
  ``done`` included, and crosses a life loss (in every game that has
  lives) and a game over;
* *capped* — a vector of three games under ``max_episode_steps``;
* *reset* — a vector reset mid-run, every few steps and right after
  every step that ends a game.

``SyncVectorEnv`` over ``make_atari_env`` and ``BatchedVectorEnv``
must both give each vector digest.  Print the tables with
``PYTHONPATH=src python tests/test_envs_golden.py``.
"""

import hashlib

import numpy as np
import pytest

from repro.ale import GAME_NAMES, make_game
from repro.envs import BatchedVectorEnv, SyncVectorEnv, make_atari_env

SCALAR_SEED = 3
#: Steps per episode of the scalar trace: enough for the first episode
#: to reach a game over; the second stops after SHORT_EPISODE steps.
EPISODE_CAP = {"beam_rider": 1500, "breakout": 300, "pong": 500,
               "qbert": 100, "seaquest": 200, "space_invaders": 100}
SHORT_EPISODE = 8

SCALAR = {
    "beam_rider": "13540d936aeee028",
    "breakout": "e4b6431d404bde3e",
    "pong": "d3214e6e4a6200ec",
    "qbert": "5a0f9cd92e821ffd",
    "seaquest": "7b6d05ff3a90e2cb",
    "space_invaders": "652173a0fcedda98",
}

VECTOR_SEED = 11
VECTOR_ENVS = 3
CAPPED_STEPS = 60
EPISODE_STEPS = 20
CAPPED = {
    "beam_rider": "6d6369611c151632",
    "breakout": "1504902146fd547c",
    "pong": "6cfe97bed6aaea0e",
    "qbert": "270bfd86e5e2cd0a",
    "seaquest": "3a8b163a56e86b98",
    "space_invaders": "d448b2cbec9e849d",
}

RESET_STEPS = 200
RESET_EVERY = 25
RESET = {
    "breakout": "f62193f485a0ac65",
    "qbert": "ebf609f9a33bc5c1",
}


def _text(value) -> str:
    return float(value).hex() if isinstance(value, float) else repr(value)


def _info_text(info: dict) -> str:
    return repr(sorted((key, _text(value)) for key, value in info.items()))


def _scalar_trace(name: str):
    """(digest, life losses, game overs, episodes cut short)."""
    env = make_atari_env(make_game(name))
    digest = hashlib.sha256()
    rng = np.random.default_rng(SCALAR_SEED)
    lives_lost = game_overs = cut = 0
    caps = (EPISODE_CAP[name], SHORT_EPISODE, EPISODE_CAP[name])
    for episode, cap in enumerate(caps):
        env.seed(SCALAR_SEED * 100 + episode)
        digest.update(env.reset().tobytes())
        for _ in range(cap):
            action = int(rng.integers(env.action_space.n))
            obs, reward, done, info = env.step(action)
            digest.update(obs.tobytes())
            digest.update(f"{_text(reward)} {done:d} "
                          f"{_info_text(info)};".encode())
            if done and not info.get("life_lost"):
                game_overs += 1
                break
            if done:
                lives_lost += 1
                digest.update(env.reset().tobytes())
        else:
            cut += 1
    return digest.hexdigest()[:16], lives_lost, game_overs, cut


def _vector_env(kind: str, name: str, max_episode_steps=None):
    if kind == "sync":
        return SyncVectorEnv(
            [lambda: make_atari_env(make_game(name),
                                    max_episode_steps=max_episode_steps)
             for _ in range(VECTOR_ENVS)], seed=VECTOR_SEED)
    return BatchedVectorEnv(name, num_envs=VECTOR_ENVS, seed=VECTOR_SEED,
                            max_episode_steps=max_episode_steps)


def _vector_trace(env, steps: int, reset_every=None):
    """(digest, what it saw: 'life lost', 'truncated' and 'game over',
    which is any finished game, a truncated one included)."""
    digest = hashlib.sha256()
    digest.update(env.reset().tobytes())
    rng = np.random.default_rng(VECTOR_SEED)
    seen = set()
    for step_index in range(1, steps + 1):
        actions = rng.integers(0, env.action_space.n, size=env.num_envs)
        step = env.step(actions)
        digest.update(step.observations.tobytes())
        digest.update(step.rewards.tobytes())
        digest.update(step.dones.tobytes())
        finished = [(slot, _text(score))
                    for slot, score in step.finished_scores]
        digest.update(repr(([_info_text(info) for info in step.infos],
                            finished)).encode())
        for info in step.infos:
            seen.update(key.replace("_", " ") for key in
                        ("life_lost", "truncated") if info.get(key))
        if finished:
            seen.add("game over")
        if reset_every and (finished or step_index % reset_every == 0):
            digest.update(env.reset().tobytes())
    return digest.hexdigest()[:16], seen


def _check(digest: str, expected: str, case) -> None:
    assert digest == expected, f"{case}: new digest {digest!r}"


@pytest.mark.parametrize("name", GAME_NAMES)
def test_scalar_trace(name):
    digest, lives_lost, game_overs, cut = _scalar_trace(name)
    _check(digest, SCALAR[name], (name, "scalar"))
    assert game_overs >= 1 and cut >= 1
    assert lives_lost >= 1 or name == "pong"     # Pong has no lives


@pytest.mark.parametrize("kind", ["sync", "batched"])
@pytest.mark.parametrize("name", GAME_NAMES)
def test_capped_vector_trace(name, kind):
    env = _vector_env(kind, name, max_episode_steps=EPISODE_STEPS)
    digest, seen = _vector_trace(env, CAPPED_STEPS)
    _check(digest, CAPPED[name], (name, kind, "capped"))
    assert "truncated" in seen


@pytest.mark.parametrize("kind", ["sync", "batched"])
@pytest.mark.parametrize("name", sorted(RESET))
def test_mid_run_reset_trace(name, kind):
    env = _vector_env(kind, name)
    digest, seen = _vector_trace(env, RESET_STEPS, reset_every=RESET_EVERY)
    _check(digest, RESET[name], (name, kind, "reset"))
    assert {"life lost", "game over"} <= seen


if __name__ == "__main__":
    for name in GAME_NAMES:
        print("scalar", name, _scalar_trace(name))
    for name in GAME_NAMES:
        print("capped", name, _vector_trace(
            _vector_env("sync", name, EPISODE_STEPS), CAPPED_STEPS))
    for name in sorted(RESET):
        print("reset", name, _vector_trace(
            _vector_env("sync", name), RESET_STEPS, RESET_EVERY))
