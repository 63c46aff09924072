"""Tests for the LSTM cell, the recurrent network, and the A3C-LSTM
agent."""

import numpy as np
import pytest

from repro.core import A3CConfig, A3CTrainer, RecurrentA3CAgent
from repro.envs import Catch, MemoryCue
from repro.nn import lstm_a3c_network, mlp_lstm_network
from repro.nn.gradcheck import numerical_gradient
from repro.nn.network import MLPPolicyNetwork
from repro.nn.parameters import ParameterSet
from repro.nn.recurrent import LSTMCell, LSTMState, sigmoid


class TestSigmoid:
    def test_range_and_symmetry(self):
        x = np.linspace(-50, 50, 101)
        y = sigmoid(x)
        assert (y >= 0).all() and (y <= 1).all()
        assert 0 < sigmoid(np.array([0.0]))[0] < 1
        np.testing.assert_allclose(y + sigmoid(-x), 1.0, atol=1e-12)

    def test_extreme_values_stable(self):
        assert sigmoid(np.array([-1000.0]))[0] == 0.0
        assert sigmoid(np.array([1000.0]))[0] == 1.0


class TestLSTMCell:
    def _setup(self, seed=0, input_size=3, hidden=4):
        rng = np.random.default_rng(seed)
        cell = LSTMCell("L", input_size, hidden)
        params = ParameterSet()
        cell.init_params(params, rng)
        return cell, params, rng

    def test_param_shapes(self):
        cell, params, _ = self._setup()
        assert params["L.weight"].shape == (16, 7)
        assert params["L.bias"].shape == (16,)
        assert cell.num_params() == 16 * 7 + 16

    def test_forget_bias_initialised_to_one(self):
        _, params, _ = self._setup()
        np.testing.assert_array_equal(params["L.bias"][4:8], 1.0)
        np.testing.assert_array_equal(params["L.bias"][:4], 0.0)

    def test_step_shapes_and_state(self):
        cell, params, rng = self._setup()
        x = rng.standard_normal((2, 3)).astype(np.float32)
        h, state, _ = cell.step(x, cell.zero_state(2), params)
        assert h.shape == (2, 4)
        assert state.c.shape == (2, 4)
        np.testing.assert_array_equal(h, state.h)

    def test_state_carries_information(self):
        """Different histories with the same current input produce
        different outputs — the memory feed-forward nets lack."""
        cell, params, rng = self._setup()
        x_now = rng.standard_normal((1, 3)).astype(np.float32)
        past_a = rng.standard_normal((1, 3)).astype(np.float32)
        past_b = rng.standard_normal((1, 3)).astype(np.float32)
        _, state_a, _ = cell.step(past_a, cell.zero_state(1), params)
        _, state_b, _ = cell.step(past_b, cell.zero_state(1), params)
        h_a, _, _ = cell.step(x_now, state_a, params)
        h_b, _, _ = cell.step(x_now, state_b, params)
        assert not np.allclose(h_a, h_b)

    def test_state_reset(self):
        state = LSTMState(h=np.ones((1, 4), dtype=np.float32),
                          c=np.ones((1, 4), dtype=np.float32))
        state.reset()
        assert state.h.sum() == 0 and state.c.sum() == 0

    def test_state_copy_is_independent(self):
        state = LSTMState(h=np.zeros((1, 4), dtype=np.float32),
                          c=np.zeros((1, 4), dtype=np.float32))
        clone = state.copy()
        clone.h += 1
        assert state.h.sum() == 0

    def test_bptt_gradients_match_numerical(self):
        """Full-precision BPTT against central differences."""
        rng = np.random.default_rng(0)
        cell = LSTMCell("L", 3, 4)
        base = ParameterSet()
        cell.init_params(base, rng)
        params = {"L.weight": base["L.weight"].astype(np.float64),
                  "L.bias": base["L.bias"].astype(np.float64)}
        xs = rng.standard_normal((5, 2, 3))
        target = rng.standard_normal((5, 2, 4))

        def loss():
            hs, _, _ = cell.forward_sequence(xs, cell.zero_state(2),
                                             params)
            return float((hs * target).sum())

        _, _, caches = cell.forward_sequence(xs, cell.zero_state(2),
                                             params)
        grads = {"L.weight": np.zeros_like(params["L.weight"]),
                 "L.bias": np.zeros_like(params["L.bias"])}
        dxs = cell.backward_sequence(target, caches, params, grads)
        np.testing.assert_allclose(
            grads["L.weight"],
            numerical_gradient(loss, params["L.weight"], 1e-6),
            rtol=1e-4, atol=1e-7)
        np.testing.assert_allclose(
            grads["L.bias"],
            numerical_gradient(loss, params["L.bias"], 1e-6),
            rtol=1e-4, atol=1e-7)
        np.testing.assert_allclose(
            dxs, numerical_gradient(loss, xs, 1e-6),
            rtol=1e-4, atol=1e-7)

    def test_sequence_equals_chained_steps(self):
        cell, params, rng = self._setup()
        xs = rng.standard_normal((4, 1, 3)).astype(np.float32)
        hs, final, _ = cell.forward_sequence(xs, cell.zero_state(1),
                                             params)
        state = cell.zero_state(1)
        for t in range(4):
            h, state, _ = cell.step(xs[t], state, params)
            np.testing.assert_array_equal(h, hs[t])
        np.testing.assert_array_equal(state.h, final.h)


class TestRecurrentPolicyNetwork:
    def test_head_width_validation(self):
        with pytest.raises(ValueError):
            mlp_lstm_network(5, (3,)).__class__(
                mlp_lstm_network(5, (3,)).trunk, num_actions=40,
                head_width=8)

    def test_forward_step_shapes(self):
        net = mlp_lstm_network(2, (3,), hidden=8, lstm_hidden=8)
        params = net.init_params(np.random.default_rng(0))
        logits, values, carry = net.forward_step(
            np.zeros((1, 3), dtype=np.float32), params,
            net.initial_state())
        assert logits.shape == (1, 2)
        assert values.shape == (1,)
        assert carry.h.shape == (1, 8)

    def test_rollout_matches_stepwise(self):
        """forward_rollout replays exactly what forward_step produced —
        the premise of the A3C-LSTM training procedure."""
        rng = np.random.default_rng(1)
        net = mlp_lstm_network(3, (4,), hidden=8, lstm_hidden=8)
        params = net.init_params(rng)
        states = rng.standard_normal((5, 4)).astype(np.float32)
        carry = net.initial_state()
        step_logits = []
        rollout_carry = carry.copy()
        for t in range(5):
            logits, _, carry = net.forward_step(states[t][None], params,
                                                carry)
            step_logits.append(logits[0])
        roll_logits, _, final = net.forward_rollout(states, params,
                                                    rollout_carry)
        np.testing.assert_allclose(roll_logits, np.stack(step_logits),
                                   rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(final.h, carry.h, rtol=1e-5)

    def test_backward_requires_forward(self):
        net = mlp_lstm_network(2, (3,))
        params = net.init_params(np.random.default_rng(0))
        with pytest.raises(RuntimeError):
            net.backward_and_grads(np.zeros((1, 2), dtype=np.float32),
                                   np.zeros(1, dtype=np.float32), params)

    def test_gradients_cover_all_parameters(self):
        rng = np.random.default_rng(2)
        net = mlp_lstm_network(2, (3,), hidden=8, lstm_hidden=8)
        params = net.init_params(rng)
        states = rng.standard_normal((4, 3)).astype(np.float32)
        net.forward_rollout(states, params, net.initial_state())
        grads = net.backward_and_grads(
            np.ones((4, 2), dtype=np.float32),
            np.ones(4, dtype=np.float32), params)
        assert set(grads.names()) == set(params.names())

    def test_table1_trunk_variant(self):
        net = lstm_a3c_network(num_actions=6)
        params = net.init_params(np.random.default_rng(0))
        logits, values, carry = net.forward_step(
            np.zeros((1, 4, 84, 84), dtype=np.float32), params,
            net.initial_state())
        assert logits.shape == (1, 6)
        assert carry.h.shape == (1, 256)
        # LSTM params: 4*256 x (256+256) + 4*256
        assert params["LSTM.weight"].shape == (1024, 512)


class TestRecurrentAgentLearning:
    def test_lstm_agent_solves_memory_task(self):
        """The separating experiment: the recurrent agent solves
        MemoryCue; a feed-forward agent is chance-level."""
        config = A3CConfig(num_agents=4, t_max=5, max_steps=50_000,
                           learning_rate=1e-2, anneal_steps=10 ** 9,
                           entropy_beta=0.02, seed=1)
        trainer = A3CTrainer(
            lambda i: MemoryCue(delay=3),
            lambda: mlp_lstm_network(2, (3,), hidden=16, lstm_hidden=16),
            config, agent_class=RecurrentA3CAgent)
        result = trainer.train(actors="serial")
        assert result.tracker.recent_mean(500) > 0.85

    def test_feedforward_agent_fails_memory_task(self):
        config = A3CConfig(num_agents=4, t_max=5, max_steps=30_000,
                           learning_rate=1e-2, anneal_steps=10 ** 9,
                           entropy_beta=0.02, seed=1)
        trainer = A3CTrainer(
            lambda i: MemoryCue(delay=3),
            lambda: MLPPolicyNetwork(2, (3,), hidden=16), config)
        result = trainer.train(actors="serial")
        assert abs(result.tracker.recent_mean(500)) < 0.4  # chance

    def test_lstm_agent_on_markov_task_still_works(self):
        """Recurrence should not hurt a memoryless task."""
        config = A3CConfig(num_agents=2, t_max=5, max_steps=25_000,
                           learning_rate=1e-2, anneal_steps=10 ** 9,
                           entropy_beta=0.02, seed=3)
        trainer = A3CTrainer(
            lambda i: Catch(size=5),
            lambda: mlp_lstm_network(3, (5, 5), hidden=32,
                                     lstm_hidden=16),
            config, agent_class=RecurrentA3CAgent)
        result = trainer.train(actors="serial")
        assert result.tracker.recent_mean(300) > 0.3


class TestMemoryCueEnv:
    def test_cue_visible_only_at_start(self):
        env = MemoryCue(delay=3)
        env.seed(0)
        obs = env.reset()
        assert obs[:2].sum() == 1.0
        obs, _, _, _ = env.step(0)
        assert obs[:2].sum() == 0.0

    def test_answer_flag_on_last_step(self):
        env = MemoryCue(delay=2)
        env.seed(0)
        obs = env.reset()
        assert obs[2] == 0.0
        obs, _, done, _ = env.step(0)
        assert obs[2] == 1.0 and not done
        _, reward, done, _ = env.step(0)
        assert done and reward in (-1.0, 1.0)

    def test_correct_recall_rewarded(self):
        env = MemoryCue(delay=1)
        env.seed(0)
        for _ in range(20):
            obs = env.reset()
            cue = int(np.argmax(obs[:2]))
            _, reward, done, _ = env.step(cue)
            assert done and reward == 1.0

    def test_delay_validation(self):
        with pytest.raises(ValueError):
            MemoryCue(delay=0)
