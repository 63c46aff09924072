"""Tests for the parameter server, agents, trainers, and baselines."""

import importlib

import numpy as np
import pytest

from repro.ale import make_game
from repro.core import (
    A3CConfig,
    A3CTrainer,
    GA3CTrainer,
    PAACTrainer,
    ParameterServer,
    ScoreTracker,
    moving_average,
)
from repro.core.parameter_server import clip_by_global_norm
from repro.envs import Catch, make_atari_env
from repro.envs.base import Env
from repro.envs.spaces import Box, Discrete
from repro.nn import Conv2D, ParameterSet
from repro.nn.network import A3CNetwork, MLPPolicyNetwork


class Bandit(Env):
    """One-step episodes: action 0 pays +1, action 1 pays -1."""

    def __init__(self):
        super().__init__()
        self.observation_space = Box(0, 1, (2,))
        self.action_space = Discrete(2)

    def reset(self):
        return np.ones(2, dtype=np.float32)

    def step(self, action):
        reward = 1.0 if int(action) == 0 else -1.0
        return np.ones(2, dtype=np.float32), reward, True, {}


def bandit_net():
    return MLPPolicyNetwork(num_actions=2, input_shape=(2,), hidden=8)


class TestA3CConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            A3CConfig(num_agents=0)
        with pytest.raises(ValueError):
            A3CConfig(t_max=0)
        with pytest.raises(ValueError):
            A3CConfig(gamma=1.5)

    def test_learning_rate_anneals_linearly_to_zero(self):
        config = A3CConfig(learning_rate=1e-3, max_steps=1000)
        assert config.learning_rate_at(0) == pytest.approx(1e-3)
        assert config.learning_rate_at(500) == pytest.approx(5e-4)
        assert config.learning_rate_at(1000) == 0.0
        assert config.learning_rate_at(2000) == 0.0

    def test_anneal_steps_override(self):
        config = A3CConfig(learning_rate=1e-3, max_steps=10,
                           anneal_steps=100)
        assert config.effective_anneal_steps == 100


class TestClipByGlobalNorm:
    def test_no_clip_under_threshold(self):
        grads = ParameterSet({"w": np.array([3.0, 4.0])})  # norm 5
        norm = clip_by_global_norm(grads, 10.0)
        assert norm == pytest.approx(5.0)
        np.testing.assert_allclose(grads["w"], [3.0, 4.0])

    def test_clips_to_threshold(self):
        grads = ParameterSet({"w": np.array([3.0, 4.0])})
        clip_by_global_norm(grads, 1.0)
        assert np.linalg.norm(grads["w"]) == pytest.approx(1.0, rel=1e-5)

    def test_norm_is_global_across_arrays(self):
        grads = ParameterSet({"a": np.array([3.0]), "b": np.array([4.0])})
        assert clip_by_global_norm(grads, 100.0) == pytest.approx(5.0)


class TestParameterServer:
    def _server(self):
        net = bandit_net()
        params = net.init_params(np.random.default_rng(0))
        return ParameterServer(params, A3CConfig(max_steps=1000)), net

    def test_snapshot_is_copy(self):
        server, _ = self._server()
        snap = server.snapshot()
        snap["FC1.weight"][0, 0] = 99.0
        assert server.params["FC1.weight"][0, 0] != 99.0

    def test_snapshot_into_syncs(self):
        server, _ = self._server()
        local = server.snapshot()
        server.params["FC1.weight"][0, 0] = 7.0
        server.snapshot_into(local)
        assert local["FC1.weight"][0, 0] == 7.0

    def test_step_counter_atomic_accumulation(self):
        server, _ = self._server()
        assert server.add_steps(5) == 5
        assert server.add_steps(3) == 8
        assert server.global_step == 8

    def test_apply_gradients_changes_params_and_counts(self):
        server, _ = self._server()
        grads = server.params.zeros_like()
        grads["FC1.weight"] += 1.0
        before = server.params["FC1.weight"].copy()
        lr = server.apply_gradients(grads)
        assert lr == pytest.approx(server.config.learning_rate)
        assert server.updates_applied == 1
        assert not np.allclose(server.params["FC1.weight"], before)

    def test_learning_rate_decays_with_steps(self):
        server, _ = self._server()
        server.add_steps(500)
        grads = server.params.zeros_like()
        lr = server.apply_gradients(grads)
        assert lr == pytest.approx(server.config.learning_rate * 0.5)


class TestA3CTrainer:
    def test_bandit_is_solved(self):
        config = A3CConfig(num_agents=2, t_max=5, max_steps=4000,
                           learning_rate=1e-2, anneal_steps=10 ** 9,
                           seed=1)
        trainer = A3CTrainer(lambda i: Bandit(), bandit_net, config)
        result = trainer.train(threads=False)
        assert result.global_steps >= 4000
        assert result.tracker.recent_mean(200) > 0.8

    def test_threaded_mode_runs(self):
        config = A3CConfig(num_agents=2, t_max=5, max_steps=600,
                           learning_rate=1e-2, seed=2)
        trainer = A3CTrainer(lambda i: Bandit(), bandit_net, config)
        result = trainer.train(threads=True)
        assert result.global_steps >= 600
        assert result.episodes > 0

    def test_progress_callback_invoked(self):
        config = A3CConfig(num_agents=1, t_max=5, max_steps=300, seed=0)
        trainer = A3CTrainer(lambda i: Bandit(), bandit_net, config)
        calls = []
        trainer.train(threads=False,
                      progress=lambda step, tracker: calls.append(step),
                      progress_interval=100)
        assert calls and calls[0] >= 100

    def test_catch_learns_round_robin(self):
        config = A3CConfig(num_agents=4, t_max=5, max_steps=40_000,
                           learning_rate=1e-2, anneal_steps=10 ** 9,
                           entropy_beta=0.02, seed=1)
        trainer = A3CTrainer(
            lambda i: Catch(size=5),
            lambda: MLPPolicyNetwork(3, (5, 5), hidden=32), config)
        result = trainer.train(threads=False)
        assert result.tracker.recent_mean(300) > 0.5

    def test_agents_have_independent_envs_and_networks(self):
        config = A3CConfig(num_agents=3, t_max=2, max_steps=10, seed=0)
        trainer = A3CTrainer(lambda i: Bandit(), bandit_net, config)
        envs = {id(agent.env) for agent in trainer.agents}
        nets = {id(agent.network) for agent in trainer.agents}
        assert len(envs) == 3 and len(nets) == 3


class TestBaselines:
    def test_ga3c_learns_bandit(self):
        config = A3CConfig(num_agents=4, t_max=5, max_steps=6000,
                           learning_rate=1e-2, anneal_steps=10 ** 9,
                           seed=3)
        result = GA3CTrainer(lambda i: Bandit(), bandit_net, config,
                             training_batch_rollouts=2).train()
        assert result.tracker.recent_mean(200) > 0.7

    def test_paac_learns_bandit(self):
        config = A3CConfig(num_agents=4, t_max=5, max_steps=6000,
                           learning_rate=1e-2, anneal_steps=10 ** 9,
                           seed=4)
        result = PAACTrainer(lambda i: Bandit(), bandit_net,
                             config).train()
        assert result.tracker.recent_mean(200) > 0.7

    def test_paac_is_synchronous(self):
        """All agents advance in lockstep: global steps are a multiple of
        num_agents * t_max after each round."""
        config = A3CConfig(num_agents=3, t_max=4, max_steps=24, seed=0)
        trainer = PAACTrainer(lambda i: Bandit(), bandit_net, config)
        result = trainer.train()
        assert result.global_steps % (3 * 4) == 0


class TestScoreTracker:
    def test_moving_average_growing_window(self):
        out = moving_average([1, 2, 3, 4], window=2)
        np.testing.assert_allclose(out, [1.0, 1.5, 2.5, 3.5])

    def test_moving_average_empty(self):
        assert moving_average([], 10).size == 0

    def test_curve_and_recent_mean(self):
        tracker = ScoreTracker(window=2)
        for step, score in [(10, 1.0), (20, 3.0), (30, 5.0)]:
            tracker.record(step, score)
        steps, curve = tracker.curve()
        np.testing.assert_array_equal(steps, [10, 20, 30])
        np.testing.assert_allclose(curve, [1.0, 2.0, 4.0])
        assert tracker.recent_mean(2) == pytest.approx(4.0)

    def test_steps_to_reach(self):
        tracker = ScoreTracker()
        for step, score in [(10, 0.0), (20, 10.0), (30, 10.0)]:
            tracker.record(step, score)
        assert tracker.steps_to_reach(5.0, window=1) == 20
        assert tracker.steps_to_reach(100.0) is None

    def test_recent_mean_empty_is_nan(self):
        assert np.isnan(ScoreTracker().recent_mean())


class TestTrainingReusesInferenceMaps:
    """A3C and PAAC train on the trunk feature maps their rollout's
    inferences kept, so no convolution FW runs inside
    apply_rollout_update; GA3C's global θ moves between prediction and
    training, so its update still runs the trunk."""

    TRAINERS = {"a3c": A3CTrainer, "paac": PAACTrainer,
                "ga3c": GA3CTrainer}

    @pytest.mark.parametrize("algorithm, trunk_runs",
                             [("a3c", False), ("paac", False),
                              ("ga3c", True)])
    def test_conv_forward_inside_the_update(self, algorithm, trunk_runs,
                                            monkeypatch):
        calls = {"update": 0, "conv_fw": 0}
        updating = []
        conv_forward = Conv2D.forward

        def counted_conv_forward(layer, x, params):
            calls["conv_fw"] += bool(updating)
            return conv_forward(layer, x, params)

        monkeypatch.setattr(Conv2D, "forward", counted_conv_forward)
        for name in ("agent", "paac", "ga3c"):
            module = importlib.import_module(f"repro.core.{name}")

            def update(*args, _update=module.apply_rollout_update,
                       **kwargs):
                calls["update"] += 1
                updating.append(True)
                try:
                    return _update(*args, **kwargs)
                finally:
                    updating.pop()
            monkeypatch.setattr(module, "apply_rollout_update", update)

        config = A3CConfig(num_agents=2, t_max=5, max_steps=40, seed=0)
        trainer = self.TRAINERS[algorithm](
            lambda agent_id: make_atari_env(make_game("breakout")),
            lambda: A3CNetwork(4), config)
        if algorithm == "a3c":
            trainer.train(actors="serial")
        else:
            trainer.train()
        assert calls["update"] > 0
        assert (calls["conv_fw"] > 0) == trunk_runs, calls
