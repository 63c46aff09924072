#!/usr/bin/env python
"""PAAC on the batched environment engine — the post-GA3C rollout shape.

PAAC (Clemente et al., 2017) steps all agents in lockstep and trains on
one synchronous batch; the environment half of that loop is exactly what
`repro.ale.vec` accelerates.  This example builds a
`BatchedVectorEnv` — B copies of Breakout living in structure-of-arrays
NumPy state behind the DeepMind preprocessing pipeline — and hands it
to `PAACTrainer` via `vector_env=`, replacing a `SyncVectorEnv` of N
one-slot envs with one vectorized `step(actions)` per frame-skip
cycle.  The training dynamics are bit-identical to the one-slot path
(tests/test_envs_batched.py); only the wall clock changes.

Run:  python examples/paac_batched.py [steps]
(default 4,000 steps — a CI-sized smoke; scale up as your budget
allows.)
"""

import sys

from repro.ale import make_game
from repro.core import A3CConfig
from repro.core.paac import PAACTrainer
from repro.envs import BatchedVectorEnv, make_atari_env
from repro.nn.network import A3CNetwork


def main(max_steps: int = 4_000):
    game_name = "breakout"
    num_actions = make_game(game_name).action_space.n

    config = A3CConfig(
        num_agents=8,                   # = batch width B
        t_max=5,
        learning_rate=7e-4,
        anneal_steps=100_000_000,
        max_steps=max_steps,
        seed=1,
    )

    # One SoA engine stepping all 8 slots per call.  Seeding with
    # config.seed applies the same per-slot derivation SyncVectorEnv
    # uses, so this run is bit-identical to the one-slot vector env.
    batched = BatchedVectorEnv(game_name, num_envs=config.num_agents,
                               seed=config.seed, max_episode_steps=1500)

    def env_factory(agent_id):              # unused with vector_env=
        return make_atari_env(make_game(game_name),
                              max_episode_steps=1500)

    trainer = PAACTrainer(env_factory,
                          lambda: A3CNetwork(num_actions), config,
                          vector_env=batched)

    print(f"Training PAAC on batched {game_name}: "
          f"B={config.num_agents} slots in one SoA engine, "
          f"{max_steps} steps...")
    result = trainer.train()
    print(f"{result.global_steps} steps in {result.wall_seconds:.1f}s "
          f"({result.steps_per_second:.0f} steps/s), "
          f"{result.episodes} episodes, "
          f"{result.routines} update rounds.")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 4_000)
