"""Environment-step microbenchmark: N one-slot envs vs one N-slot batch.

PAAC/GA3C spend their host time stepping N environments in lockstep.
The "scalar" column is a ``SyncVectorEnv`` of N ``make_atari_env``
envs, each a one-slot :class:`~repro.envs.BatchedVectorEnv`, so a
vector step pays N Python calls into N batch-1 engines; the "batched"
column is one N-slot ``BatchedVectorEnv``, which advances all N slots
of one structure-of-arrays engine (:mod:`repro.ale.vec`) with batched
NumPy.  This bench measures both at several batch widths, and the bare
engine as well.  It asserts that the engine vectorizes: at B = 64 and
B = 256 the engine alone must step at least twice as many frames per
second as at B = 1.  A per-slot engine scales by about 1x.  The batched
env is not gated against the one-slot envs: both run the same code,
and a faster B = 1 engine speeds up the one-slot envs most.

Set ``REPRO_ENV_STEP_JSON=/some/file.json`` to also write the measured
rows as a machine-readable artifact (CI uploads this from the
host-bench-smoke job).
"""

import json
import os
import time

import numpy as np

from repro.ale import make_game
from repro.ale.vec import make_vec_game
from repro.envs import BatchedVectorEnv, SyncVectorEnv, make_atari_env
from repro.envs.batched import FRAME_SKIP
from repro.harness import format_table

GAME = "breakout"
SEED = 11
BATCHES = (1, 8, 64, 256)


def _steps_for(batch):
    """Keep per-width wall time roughly constant across the sweep."""
    return max(8, 256 // batch)


def _measure(env, batch, steps):
    """Best-of-3 frames/second over ``steps`` lockstep vector steps."""
    rng = np.random.default_rng(SEED)
    n = env.action_space.n
    actions = rng.integers(0, n, size=(steps, batch))
    env.reset()
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        for row in actions:
            env.step(row)
        best = min(best, time.perf_counter() - started)
    return steps * batch * FRAME_SKIP / best


def _measure_engine(batch, steps):
    """Best-of-5 frames/second of the bare engine over ``steps`` frames
    for every slot; finished slots are reset as they end.  Two more
    repeats than :func:`_measure`: the gate reads a ratio of these."""
    engine = make_vec_game(GAME, batch)
    engine.seed([SEED + slot for slot in range(batch)])
    rng = np.random.default_rng(SEED)
    actions = rng.integers(0, engine.action_space.n, size=(steps, batch))
    engine.reset()
    best = float("inf")
    for _ in range(5):
        started = time.perf_counter()
        for row in actions:
            engine.step(row)
            over = np.nonzero(engine.game_over)[0]
            if over.size:
                engine.reset_slots(over)
        best = min(best, time.perf_counter() - started)
    return steps * batch / best


def _sweep():
    rows = []
    engine_base = None
    for batch in BATCHES:
        steps = _steps_for(batch)
        scalar = SyncVectorEnv(
            [lambda: make_atari_env(make_game(GAME))
             for _ in range(batch)], seed=SEED)
        scalar_fps = _measure(scalar, batch, steps)
        scalar.close()
        batched = BatchedVectorEnv(GAME, num_envs=batch, seed=SEED)
        batched_fps = _measure(batched, batch, steps)
        batched.close()
        # As many engine frames per slot as the env sweeps take.
        engine_fps = _measure_engine(batch, steps * FRAME_SKIP)
        if engine_base is None:
            engine_base = engine_fps
        rows.append({
            "batch": batch,
            "steps": steps,
            "scalar_fps": round(scalar_fps, 1),
            "batched_fps": round(batched_fps, 1),
            "speedup": round(batched_fps / scalar_fps, 2),
            "engine_fps": round(engine_fps, 1),
            "engine_scaling": round(engine_fps / engine_base, 2),
        })
    return rows


def test_env_step_scaling(show):
    rows = _sweep()
    show(format_table(
        rows, title=f"Env-step microbench ({GAME}, frame_skip="
                    f"{FRAME_SKIP}, de-flickered frames/s, best of 3)"))
    artifact = os.environ.get("REPRO_ENV_STEP_JSON")
    if artifact:
        with open(artifact, "w") as fh:
            json.dump({"game": GAME, "frame_skip": FRAME_SKIP,
                       "rows": rows}, fh, indent=2)
            fh.write("\n")
    by_batch = {row["batch"]: row for row in rows}
    # The engine must vectorize at rollout-loop widths: frames/s at
    # B = 64 and 256 at least twice its B = 1 rate.  An engine that
    # steps one slot at a time scales by about 1x and fails here.
    assert by_batch[64]["engine_scaling"] >= 2.0, by_batch[64]
    assert by_batch[256]["engine_scaling"] >= 2.0, by_batch[256]


if __name__ == "__main__":
    print(format_table(_sweep(), title="Env-step microbench"))
