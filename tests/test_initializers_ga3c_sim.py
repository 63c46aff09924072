"""Tests for weight initialisers and the GA3C predictor/trainer DES."""

import collections

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

from repro import obs
from repro.gpu.platform import GA3CTFPlatform
from repro.nn.initializers import he_uniform, torch_dqn_init, zeros
from repro.nn.network import A3CNetwork
from repro.obs.prof.buckets import GPU_TIME_TOTAL_METRIC
from repro.platforms import measure_ips
from repro.sim import Engine


class TestInitializers:
    @hypothesis.given(st.integers(0, 2 ** 31 - 1))
    @hypothesis.settings(max_examples=15, deadline=None)
    def test_torch_dqn_bounds(self, seed):
        rng = np.random.default_rng(seed)
        weight = torch_dqn_init((16, 4, 8, 8), rng)
        bound = 1.0 / np.sqrt(4 * 64)
        assert weight.dtype == np.float32
        assert np.abs(weight).max() <= bound

    def test_dense_fan_in(self):
        rng = np.random.default_rng(0)
        weight = torch_dqn_init((5, 100), rng)
        assert np.abs(weight).max() <= 1.0 / np.sqrt(100)

    def test_he_uniform_wider_than_dqn(self):
        rng = np.random.default_rng(0)
        he = he_uniform((64, 64), np.random.default_rng(1))
        dqn = torch_dqn_init((64, 64), np.random.default_rng(1))
        assert np.abs(he).max() > np.abs(dqn).max()

    def test_zeros(self):
        np.testing.assert_array_equal(zeros((3, 3)), 0.0)

    def test_unknown_shape_rejected(self):
        with pytest.raises(ValueError):
            torch_dqn_init((2, 2, 2, 2, 2))

    def test_initial_policy_is_near_uniform(self):
        """Fan-in init keeps initial logits small: the starting policy
        is near-uniform, as A3C's entropy-driven exploration expects."""
        net = A3CNetwork(num_actions=6)
        params = net.init_params(np.random.default_rng(0))
        x = np.random.default_rng(1).random(
            (8, 4, 84, 84)).astype(np.float32)
        logits, _ = net.forward(x, params)
        from repro.nn.losses import entropy, softmax
        mean_entropy = float(entropy(softmax(logits)).mean())
        assert mean_entropy > 0.95 * np.log(6)


class TestGA3CSim:
    """The predictor/trainer servers, driven the way agents drive them:
    an inference is a reply event on ``predict_queue``, a training task
    a rollout length on ``train_queue``."""

    @pytest.fixture
    def sim(self):
        topology = A3CNetwork(6).topology()
        platform = GA3CTFPlatform(topology, max_prediction_batch=8)
        engine = Engine()
        return platform, engine, platform.build_sim(engine)

    @staticmethod
    def _request(engine, ga3c, served):
        """Post one prediction request; its service time lands in
        ``served``."""
        reply = engine.event()
        reply.callbacks.append(lambda _event: served.append(engine.now))
        ga3c.predict_queue.put(reply)

    def test_predictor_batches_waiting_requests(self, sim):
        """Requests queued while the predictor is busy are served
        together in one batched kernel."""
        platform, engine, ga3c = sim
        served = []

        def five_more(_event):
            for _ in range(5):
                self._request(engine, ga3c, served)

        self._request(engine, ga3c, served)
        # The five arrive while the first batch is still in service.
        engine.timeout(platform.task_seconds("inference", 1) / 2) \
            .callbacks.append(five_more)
        engine.run()
        # The first request forms a batch of 1; the other five coalesce.
        sizes = collections.Counter(np.round(served, 9))
        assert [sizes[time] for time in sorted(sizes)] == [1, 5]

    def test_training_does_not_block_agent(self, sim):
        """Handing over a rollout is a plain queue put: the agent never
        waits, and the device trains afterwards."""
        platform, engine, ga3c = sim
        # A put returns no event, so there is nothing to wait on.
        assert ga3c.train_queue.put(5) is None
        engine.run()
        assert engine.now == pytest.approx(
            platform.task_seconds("train", 5))
        assert ga3c.device.total_requests == 1

    def test_sync_is_noop(self, sim):
        """GA3C has no per-agent model to sync: a measurement spends
        device time on predictions and training only."""
        platform, _engine, _ga3c = sim
        assert GA3CTFPlatform.needs_sync is False
        with obs.enabled_scope(reset=True):
            measure_ips(platform, 4, routines_per_agent=4)
            rows = [row for row in obs.metrics().snapshot()
                    if row["name"] == GPU_TIME_TOTAL_METRIC]
        assert {row["labels"]["task"] for row in rows} \
            == {"predict", "train"}

    def test_batch_capped_at_max(self, sim):
        platform, engine, ga3c = sim
        served = []
        for _ in range(20):
            self._request(engine, ga3c, served)
        engine.run()
        # max_prediction_batch=8 splits 20 queued requests 8 + 8 + 4.
        sizes = collections.Counter(np.round(served, 9))
        assert [sizes[time] for time in sorted(sizes)] == [8, 8, 4]
