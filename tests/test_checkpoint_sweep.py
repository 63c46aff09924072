"""Tests for checkpointing and the learning-rate sweep utility."""

import os

import numpy as np
import pytest

from repro.core import A3CConfig
from repro.core.sweep import sweep_learning_rates
from repro.envs.base import Env
from repro.envs.spaces import Box, Discrete
from repro.nn import ParameterSet, RMSProp
from repro.nn.checkpoint import (
    load_checkpoint,
    restore_optimizer,
    save_checkpoint,
)
from repro.nn.network import MLPPolicyNetwork


class _Bandit(Env):
    def __init__(self):
        super().__init__()
        self.observation_space = Box(0, 1, (2,))
        self.action_space = Discrete(2)

    def reset(self):
        return np.ones(2, dtype=np.float32)

    def step(self, action):
        return (np.ones(2, dtype=np.float32),
                1.0 if int(action) == 0 else -1.0, True, {})


class TestCheckpoint:
    def _params(self, seed=0):
        net = MLPPolicyNetwork(2, (2,), hidden=4)
        return net, net.init_params(np.random.default_rng(seed))

    def test_round_trip_params_and_metadata(self, tmp_path):
        _, params = self._params()
        path = os.path.join(tmp_path, "ckpt.npz")
        save_checkpoint(path, params,
                        metadata={"global_step": 12345, "game": "pong"})
        loaded, stats, metadata = load_checkpoint(path)
        assert loaded.allclose(params, rtol=0, atol=0)
        assert stats is None
        assert metadata == {"global_step": 12345, "game": "pong"}

    def test_round_trip_optimizer_statistics(self, tmp_path):
        _, params = self._params()
        optimizer = RMSProp(learning_rate=1e-3)
        grads = params.zeros_like()
        grads["FC1.weight"] += 0.5
        optimizer.step(params, grads)
        path = os.path.join(tmp_path, "ckpt.npz")
        save_checkpoint(path, params, optimizer=optimizer)
        loaded, stats, _ = load_checkpoint(path)
        assert stats is not None
        assert stats.allclose(optimizer.statistics, rtol=0, atol=0)

    def test_resume_continues_identically(self, tmp_path):
        """Save, restore into fresh objects, take one more step each —
        trajectories match exactly."""
        _, params_a = self._params(seed=1)
        optimizer_a = RMSProp(learning_rate=1e-3)
        grads = params_a.zeros_like()
        grads["FC1.weight"] += 1.0
        optimizer_a.step(params_a, grads)
        path = os.path.join(tmp_path, "ckpt.npz")
        save_checkpoint(path, params_a, optimizer=optimizer_a)

        params_b, stats, _ = load_checkpoint(path)
        optimizer_b = RMSProp(learning_rate=1e-3)
        restore_optimizer(optimizer_b, stats)

        optimizer_a.step(params_a, grads)
        optimizer_b.step(params_b, grads)
        assert params_b.allclose(params_a, rtol=0, atol=0)

    def _restored(self, statistics):
        _, params = self._params()
        optimizer = RMSProp(learning_rate=1e-3)
        optimizer.attach(params)
        kept = optimizer.statistics
        with pytest.raises(ValueError, match=r"FC1\.weight") as error:
            restore_optimizer(optimizer, statistics)
        assert optimizer.statistics is kept
        return str(error.value)

    def test_restore_rejects_statistics_missing_a_tensor(self):
        _, params = self._params()
        saved = ParameterSet({name: value for name, value
                              in params.zeros_like().items()
                              if name != "FC1.weight"})
        assert "missing" in self._restored(saved)

    def test_restore_rejects_transposed_statistics(self):
        _, params = self._params()
        saved = params.zeros_like()
        saved["FC1.weight"] = saved["FC1.weight"].T.copy()
        assert "(2, 4)" in self._restored(saved)

    def test_empty_metadata_default(self, tmp_path):
        _, params = self._params()
        path = os.path.join(tmp_path, "ckpt.npz")
        save_checkpoint(path, params)
        _, _, metadata = load_checkpoint(path)
        assert metadata == {}

    def test_writes_exactly_the_named_path(self, tmp_path):
        # np.savez given a name appends ".npz"; the checkpoint must land
        # at the path it was asked for, whatever its suffix.
        _, params = self._params()
        path = os.path.join(tmp_path, "model.ckpt")
        save_checkpoint(path, params, metadata={"global_step": 7})
        assert os.listdir(tmp_path) == ["model.ckpt"]
        loaded, _, metadata = load_checkpoint(path)
        assert loaded.allclose(params, rtol=0, atol=0)
        assert metadata == {"global_step": 7}

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path,
                                                    monkeypatch):
        _, params = self._params(seed=0)
        path = os.path.join(tmp_path, "ckpt.npz")
        save_checkpoint(path, params, metadata={"global_step": 1})
        write_array = np.lib.format.write_array
        written = []

        def fail_after_first_array(*args, **kwargs):
            if written:
                raise OSError("disk full")
            written.append(True)
            write_array(*args, **kwargs)

        monkeypatch.setattr(np.lib.format, "write_array",
                            fail_after_first_array)
        _, newer = self._params(seed=1)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, newer, metadata={"global_step": 2})
        monkeypatch.undo()
        assert written
        assert os.listdir(tmp_path) == ["ckpt.npz"]
        loaded, _, metadata = load_checkpoint(path)
        assert loaded.allclose(params, rtol=0, atol=0)
        assert metadata == {"global_step": 1}


class TestSweep:
    def _run(self, rates, seeds=(0,)):
        config = A3CConfig(num_agents=2, t_max=5, max_steps=2500,
                           anneal_steps=10 ** 9, seed=0)
        return sweep_learning_rates(
            lambda i: _Bandit(),
            lambda: MLPPolicyNetwork(2, (2,), hidden=8),
            config, learning_rates=rates, seeds=seeds,
            score_window=100)

    def test_grid_coverage(self):
        result = self._run([1e-4, 1e-2], seeds=(0, 1))
        assert len(result.entries) == 4
        assert set(result.by_learning_rate()) == {1e-4, 1e-2}

    def test_best_picks_learnable_rate(self):
        """1e-2 solves the bandit within budget; 1e-6 cannot."""
        result = self._run([1e-6, 1e-2])
        assert result.best.learning_rate == 1e-2
        assert result.best.final_score > 0.5

    def test_rows_summarise_per_rate(self):
        result = self._run([1e-3], seeds=(0, 1))
        rows = result.rows()
        assert len(rows) == 1
        assert rows[0]["runs"] == 2

    def test_base_config_not_mutated(self):
        config = A3CConfig(num_agents=1, t_max=5, max_steps=500,
                           learning_rate=7e-4, seed=9)
        sweep_learning_rates(lambda i: _Bandit(),
                             lambda: MLPPolicyNetwork(2, (2,), hidden=4),
                             config, learning_rates=[1e-3])
        assert config.learning_rate == 7e-4
        assert config.seed == 9

    def test_best_requires_scores(self):
        from repro.core.sweep import SweepResult
        with pytest.raises(ValueError):
            SweepResult(entries=[]).best
