#!/usr/bin/env python
"""Quickstart: train A3C on the Catch environment in under a minute.

Demonstrates the core public API:

* build an environment factory and a policy/value network factory;
* configure A3C (paper defaults: t_max = 5, shared RMSProp, entropy
  regularisation, linear learning-rate annealing);
* train with the asynchronous multi-agent trainer;
* read the training curve from the score tracker.

Run:  python examples/quickstart.py
"""

from repro.core import A3CConfig, A3CTrainer
from repro.envs import Catch
from repro.harness import format_curve
from repro.nn.network import MLPPolicyNetwork


def main():
    config = A3CConfig(
        num_agents=4,           # parallel actor-learners
        t_max=5,                # rollout length (paper Section 2.2)
        learning_rate=1e-2,     # small net, small env: larger rate
        anneal_steps=10 ** 9,   # effectively constant for this demo
        entropy_beta=0.02,
        max_steps=80_000,
        seed=1,
    )

    trainer = A3CTrainer(
        env_factory=lambda agent_id: Catch(size=7),
        network_factory=lambda: MLPPolicyNetwork(
            num_actions=3, input_shape=(7, 7), hidden=64),
        config=config,
    )

    print(f"Training A3C on Catch: {config.num_agents} agents, "
          f"t_max={config.t_max}, {config.max_steps} steps...")
    result = trainer.train(
        actors="serial",
        progress=lambda step, tracker: print(
            f"  step {step:>6}: mean score (last 500) = "
            f"{tracker.recent_mean(500):+.3f}"),
        progress_interval=20_000,
    )

    steps, scores = result.tracker.curve()
    print()
    print(format_curve(steps, scores, "catch (moving average)"))
    print(f"\nDone: {result.global_steps} steps, {result.episodes} "
          f"episodes, {result.steps_per_second:.0f} steps/s.")
    final = result.tracker.recent_mean(500)
    print(f"Final mean score: {final:+.3f}  (optimal = +1.0, "
          f"random play = -0.7)")


if __name__ == "__main__":
    main()
