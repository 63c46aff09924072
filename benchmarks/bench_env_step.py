"""Environment-step microbenchmark: scalar wrapper chains vs the SoA batch.

PAAC/GA3C spend their host time stepping N environments in lockstep.
The scalar path pays N Python wrapper chains per vector step; the
structure-of-arrays engine (:mod:`repro.ale.vec` behind
:class:`~repro.envs.BatchedVectorEnv`) advances all N slots with batched
NumPy.  This bench measures both at several batch widths and asserts the
batched engine's scaling advantage where it matters for the rollout
loops (B = 64).

Set ``REPRO_ENV_STEP_JSON=/some/file.json`` to also write the measured
rows as a machine-readable artifact (CI uploads this from the
host-bench-smoke job).
"""

import json
import os
import time

import numpy as np

from repro.ale import make_game
from repro.envs import BatchedVectorEnv, SyncVectorEnv, make_atari_env
from repro.harness import format_table

GAME = "breakout"
SEED = 11
BATCHES = (1, 8, 64, 256)
FRAME_SKIP = 4


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


def _sweep():
    rows = []
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
        rows.append({
            "batch": batch,
            "steps": steps,
            "scalar_fps": round(scalar_fps, 1),
            "batched_fps": round(batched_fps, 1),
            "speedup": round(batched_fps / scalar_fps, 2),
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
    # The SoA engine must clearly win at rollout-loop widths; at B = 1
    # it may lose (batch bookkeeping with nothing to amortise it).
    assert by_batch[64]["speedup"] >= 2.0, by_batch[64]
    assert by_batch[256]["speedup"] >= 2.0, by_batch[256]


if __name__ == "__main__":
    print(format_table(_sweep(), title="Env-step microbench"))
