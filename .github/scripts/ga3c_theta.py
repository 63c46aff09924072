"""Print GA3C's final-θ digest for one seed (Breakout, 3 agents, 600 steps).

Usage, from the root of a checkout:
``PYTHONPATH=src python3 .github/scripts/ga3c_theta.py SEED``.

It builds its environments as ``make_atari_env(make_game("breakout"))``
through the trainer's env factory, so ``theta_parity.sh`` can run the
same script against an older checkout.  The digest is perfbench's: a
SHA-256 over θ's names and fp32 bytes, in name order.
"""

import hashlib
import sys

import numpy as np

from repro.ale import make_game
from repro.core import A3CConfig, GA3CTrainer
from repro.envs import make_atari_env
from repro.nn.network import A3CNetwork


def main(seed: int) -> None:
    config = A3CConfig(num_agents=3, max_steps=600, seed=seed)
    result = GA3CTrainer(
        lambda agent_id: make_atari_env(make_game("breakout")),
        lambda: A3CNetwork(4), config).train()
    digest = hashlib.sha256()
    for name in sorted(result.params.names()):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(result.params[name]).tobytes())
    print(f"# theta_digest: {digest.hexdigest()[:16]}")


if __name__ == "__main__":
    main(int(sys.argv[1]))
