#!/usr/bin/env python
"""The A3C-LSTM variant on a memory task.

The original A3C publication also evaluates a recurrent agent (256 LSTM
cells after the last hidden layer); FA3C's generic-PE argument covers it
as just another accumulation frequency.  This example shows *why* the
variant exists: on a task where the deciding observation carries no
information (a cue must be remembered for a few steps), the feed-forward
agent is stuck at chance while the LSTM agent solves it.

Run:  python examples/lstm_memory.py
"""

from repro.core import A3CConfig, A3CTrainer, RecurrentA3CAgent
from repro.envs import MemoryCue
from repro.nn import mlp_lstm_network
from repro.nn.network import MLPPolicyNetwork


def train(label, network_factory, agent_class=None):
    config = A3CConfig(num_agents=4, t_max=5, max_steps=50_000,
                       learning_rate=1e-2, anneal_steps=10 ** 9,
                       entropy_beta=0.02, seed=1)
    kwargs = {} if agent_class is None else {"agent_class": agent_class}
    trainer = A3CTrainer(lambda i: MemoryCue(delay=3), network_factory,
                         config, **kwargs)
    result = trainer.train(actors="serial")
    score = result.tracker.recent_mean(500)
    print(f"  {label:22s} final mean score: {score:+.3f}")
    return score


def main():
    print("MemoryCue (recall a 2-way cue after a 3-step delay; "
          "+1 correct / -1 wrong):\n")
    lstm = train(
        "A3C-LSTM",
        lambda: mlp_lstm_network(2, (3,), hidden=16, lstm_hidden=16),
        agent_class=RecurrentA3CAgent)
    feedforward = train(
        "A3C (feed-forward)",
        lambda: MLPPolicyNetwork(2, (3,), hidden=16))
    print(f"\nThe recurrent agent remembers the cue "
          f"({lstm:+.2f} vs {feedforward:+.2f} at chance).")


if __name__ == "__main__":
    main()
