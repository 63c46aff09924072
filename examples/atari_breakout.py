#!/usr/bin/env python
"""Train A3C on simulated Atari Breakout — the paper's full pipeline.

This is the exact workload of the paper's evaluation at reduced scale:
210x160 RGB frames from the simulated Arcade Learning Environment,
DeepMind preprocessing (frame-skip + max, grayscale, 84x84 resize,
4-frame stack, reward clipping, episodic life), the Table 1 DNN, 16-style
asynchronous agents with shared RMSProp, learning rate 7e-4 annealed
linearly.

Run:  python examples/atari_breakout.py [steps]
(default 20,000 steps; the paper trains for 100M — scale as your budget
allows.  Expect a clearly rising score within the first ~25k steps.)
"""

import sys

from repro.ale import make_game
from repro.core import A3CConfig, A3CTrainer
from repro.envs import make_atari_env
from repro.harness import format_curve
from repro.nn.network import A3CNetwork


def main(max_steps: int = 20_000):
    game_name = "breakout"
    num_actions = make_game(game_name).action_space.n

    def env_factory(agent_id):
        return make_atari_env(make_game(game_name),
                              max_episode_steps=1500)

    config = A3CConfig(
        num_agents=4,
        t_max=5,
        learning_rate=7e-4,             # the paper's setting
        anneal_steps=100_000_000,       # annealed over 100M steps
        max_steps=max_steps,
        seed=1,
    )
    trainer = A3CTrainer(env_factory,
                         lambda: A3CNetwork(num_actions), config)

    print(f"Training A3C on simulated {game_name}: "
          f"{config.num_agents} agents, {max_steps} steps "
          f"(lr 7e-4, t_max 5, shared RMSProp)...")
    result = trainer.train(
        actors="threads",
        progress=lambda step, tracker: print(
            f"  step {step:>7}: episodes={len(tracker)} "
            f"mean score={tracker.recent_mean(50):.1f}"),
        progress_interval=5_000,
    )

    steps, scores = result.tracker.curve()
    print()
    print(format_curve(steps, scores, game_name))
    print(f"\n{result.global_steps} steps in {result.wall_seconds:.0f}s "
          f"({result.steps_per_second:.0f} steps/s), "
          f"{result.episodes} full games.")
    print(f"Mean score over the last 50 games: "
          f"{result.tracker.recent_mean(50):.1f}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 20_000)
