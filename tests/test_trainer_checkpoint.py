"""Tests for trainer-level checkpoint/resume."""

import os

import numpy as np
import pytest

from repro.core import A3CConfig, A3CTrainer
from repro.envs import Catch
from repro.nn import ParameterSet, RMSProp
from repro.nn.checkpoint import save_checkpoint
from repro.nn.network import MLPPolicyNetwork


def _trainer(seed=3, max_steps=3000):
    config = A3CConfig(num_agents=2, t_max=5, max_steps=max_steps,
                       learning_rate=5e-3, seed=seed)
    return A3CTrainer(lambda i: Catch(size=5),
                      lambda: MLPPolicyNetwork(3, (5, 5), hidden=8),
                      config)


class TestTrainerCheckpoint:
    def test_save_restore_round_trip(self, tmp_path):
        trainer = _trainer()
        trainer.train(actors="serial")
        path = os.path.join(tmp_path, "ckpt.npz")
        trainer.save_checkpoint(path)

        resumed = _trainer()
        metadata = trainer.server.global_step
        meta = resumed.restore_checkpoint(path)
        assert resumed.server.global_step == metadata
        assert resumed.server.params.allclose(trainer.server.params,
                                              rtol=0, atol=0)
        assert meta["config"]["learning_rate"] == pytest.approx(5e-3)

    def test_restore_syncs_agent_local_params(self, tmp_path):
        trainer = _trainer()
        trainer.train(actors="serial")
        path = os.path.join(tmp_path, "ckpt.npz")
        trainer.save_checkpoint(path)

        resumed = _trainer()
        resumed.restore_checkpoint(path)
        for agent in resumed.agents:
            assert agent.local_params.allclose(resumed.server.params,
                                               rtol=0, atol=0)

    def test_restore_resumes_annealed_learning_rate(self, tmp_path):
        trainer = _trainer(max_steps=2000)
        trainer.train(actors="serial")
        path = os.path.join(tmp_path, "ckpt.npz")
        trainer.save_checkpoint(path)

        resumed = _trainer(max_steps=4000)
        resumed.restore_checkpoint(path)
        # The learning rate continues from the saved step, not from 0.
        grads = resumed.server.params.zeros_like()
        lr = resumed.server.apply_gradients(grads)
        expected = resumed.config.learning_rate_at(
            resumed.server.global_step)
        assert lr == pytest.approx(expected)
        assert lr < resumed.config.learning_rate

    def test_resumed_training_continues(self, tmp_path):
        trainer = _trainer(max_steps=2000)
        trainer.train(actors="serial")
        path = os.path.join(tmp_path, "ckpt.npz")
        trainer.save_checkpoint(path)

        resumed = _trainer(max_steps=4000)
        resumed.restore_checkpoint(path)
        result = resumed.train(actors="serial")
        assert result.global_steps >= 4000

    def test_restore_rejects_statistics_that_do_not_match_theta(
            self, tmp_path):
        """Statistics without one of θ's tensors must fail the restore,
        naming the checkpoint and the tensor.  Accepted, they would kill
        every training thread at its first apply (a KeyError on stderr)
        while ``train`` returned normally."""
        trainer = _trainer()
        statistics = ParameterSet({
            name: value for name, value in trainer.server.params.items()
            if name != "FC1.weight"})
        optimizer = RMSProp()
        optimizer.adopt_statistics(statistics)
        path = os.path.join(tmp_path, "ckpt.npz")
        save_checkpoint(path, trainer.server.params, optimizer=optimizer,
                        metadata={"global_step": 100})
        resumed = _trainer()
        kept = resumed.server.params.copy()
        with pytest.raises(ValueError) as error:
            resumed.restore_checkpoint(path)
        assert str(error.value).startswith(f"{path}: FC1.weight")
        assert resumed.server.global_step == 0
        assert resumed.server.params.allclose(kept, rtol=0, atol=0)

    def test_restore_rejects_a_transposed_theta_tensor(self, tmp_path):
        """A transposed θ tensor must fail the restore by name before
        any tensor is copied, not in ``np.copyto`` after the tensors
        before it were overwritten."""
        saved = _trainer(seed=3).server.params.copy()
        saved["FC2.weight"] = saved["FC2.weight"].T.copy()
        path = os.path.join(tmp_path, "ckpt.npz")
        save_checkpoint(path, saved)
        resumed = _trainer(seed=4)
        kept = resumed.server.params.copy()
        with pytest.raises(ValueError) as error:
            resumed.restore_checkpoint(path)
        assert str(error.value).startswith(f"{path}: FC2.weight")
        assert resumed.server.params.allclose(kept, rtol=0, atol=0)
