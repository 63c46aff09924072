"""Integration: the GA3C and PAAC baselines on the real pixel pipeline,
plus cross-algorithm consistency checks."""

import numpy as np
import pytest

from repro.ale import make_game
from repro.core import A3CConfig, A3CTrainer, GA3CTrainer, PAACTrainer
from repro.envs import BatchedVectorEnv, Catch, make_atari_env
from repro.nn.network import A3CNetwork, MLPPolicyNetwork


def _pixel_env_factory(agent_id):
    return make_atari_env(make_game("breakout"), max_episode_steps=250)


class TestBaselinesOnPixels:
    def test_ga3c_runs_on_atari(self):
        config = A3CConfig(num_agents=2, t_max=5, max_steps=120, seed=0)
        result = GA3CTrainer(_pixel_env_factory, lambda: A3CNetwork(4),
                             config, training_batch_rollouts=2).train()
        assert result.global_steps >= 120
        assert result.routines > 0

    def test_paac_runs_on_atari(self):
        config = A3CConfig(num_agents=2, t_max=5, max_steps=100, seed=0)
        result = PAACTrainer(_pixel_env_factory, lambda: A3CNetwork(4),
                             config).train()
        assert result.global_steps >= 100
        assert result.routines == result.global_steps // (2 * 5)


class TestGA3CVectorEnv:
    """GA3C steps one vector env, as PAAC does: a prebuilt
    ``BatchedVectorEnv`` and the ``SyncVectorEnv`` it builds over the
    env factory give the same run."""

    @pytest.mark.parametrize("seed", [0, 3])
    def test_batched_env_matches_factory_path(self, seed):
        def run(**kwargs):
            config = A3CConfig(num_agents=3, max_steps=600, seed=seed)
            return GA3CTrainer(
                lambda i: make_atari_env(make_game("breakout")),
                lambda: A3CNetwork(4), config, **kwargs).train()

        factory = run()
        batched = run(vector_env=BatchedVectorEnv("breakout", 3,
                                                  seed=seed))
        assert factory.episodes > 0
        assert (batched.global_steps, batched.routines,
                batched.episodes) == (factory.global_steps,
                                      factory.routines, factory.episodes)
        assert batched.params.names() == factory.params.names()
        for name in factory.params.names():
            np.testing.assert_array_equal(batched.params[name],
                                          factory.params[name])


class TestAlgorithmConsistency:
    """All three algorithms optimise the same objective: on an easy task
    they converge to comparable policies."""

    @pytest.mark.parametrize("algorithm", ["a3c", "ga3c", "paac"])
    def test_all_solve_catch(self, algorithm):
        config = A3CConfig(num_agents=4, t_max=5, max_steps=70_000,
                           learning_rate=1e-2, anneal_steps=10 ** 9,
                           entropy_beta=0.02, seed=2)
        env_factory = lambda i: Catch(size=5)         # noqa: E731
        net_factory = lambda: MLPPolicyNetwork(       # noqa: E731
            3, (5, 5), hidden=32)
        if algorithm == "a3c":
            trainer = A3CTrainer(env_factory, net_factory, config)
            result = trainer.train(actors="serial")
        elif algorithm == "ga3c":
            result = GA3CTrainer(env_factory, net_factory, config,
                                 training_batch_rollouts=2).train()
        else:
            result = PAACTrainer(env_factory, net_factory,
                                 config).train()
        assert result.tracker.recent_mean(300) > 0.5, algorithm

    def test_ga3c_policy_lag_is_real(self):
        """GA3C's defining deviation: rollouts may train against a
        *different* model than the one that produced them (the paper's
        stability caveat).  The parameter server moves between a
        worker's rollout start and its training, unlike in A3C where the
        local snapshot is fixed per routine."""
        config = A3CConfig(num_agents=4, t_max=5, max_steps=400,
                           learning_rate=1e-2, seed=0)
        trainer = GA3CTrainer(lambda i: Catch(size=5),
                              lambda: MLPPolicyNetwork(3, (5, 5),
                                                       hidden=8),
                              config, training_batch_rollouts=4)
        before = trainer.server.params.copy()
        trainer.train()
        # Single shared parameter set; no agent owns a local copy.
        assert not hasattr(trainer.workers[0], "local_params")
        assert not trainer.server.params.allclose(before)


class TestDeterminism:
    def test_round_robin_a3c_fully_deterministic(self):
        def run():
            config = A3CConfig(num_agents=2, t_max=5, max_steps=2_000,
                               learning_rate=5e-3, seed=11)
            trainer = A3CTrainer(lambda i: Catch(size=5),
                                 lambda: MLPPolicyNetwork(3, (5, 5),
                                                          hidden=8),
                                 config)
            result = trainer.train(actors="serial")
            return result.params.flatten()

        np.testing.assert_array_equal(run(), run())

    def test_paac_deterministic(self):
        def run():
            config = A3CConfig(num_agents=3, t_max=4, max_steps=1_200,
                               learning_rate=5e-3, seed=7)
            result = PAACTrainer(lambda i: Catch(size=5),
                                 lambda: MLPPolicyNetwork(3, (5, 5),
                                                          hidden=8),
                                 config).train()
            return result.params.flatten()

        np.testing.assert_array_equal(run(), run())
