"""Integration: A3C training *through the simulated FA3C hardware* is
numerically equivalent to the software path.

This is the reproduction's analogue of the paper's Section 5.6 claim that
the FA3C platform "correctly trains the A3C DNNs": the full
forward / backward / gradient / RMSProp pipeline runs through the DRAM
patch images, the FW/BW layout loads, the compute units, and the RMSProp
module — and lands on the same parameters as the software implementation.
"""

import numpy as np
import pytest

from repro.fpga.functional import FPGANetworkBackend
from repro.nn.losses import a3c_loss_and_head_gradients
from repro.nn.network import A3CNetwork
from repro.nn.optim import RMSProp


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(42)
    network = A3CNetwork(num_actions=6)
    params = network.init_params(rng)
    backend = FPGANetworkBackend(network, params=params.copy())
    return rng, network, params, backend


class TestHardwareSoftwareEquivalence:
    def test_parameters_round_trip_through_dram(self, setup):
        _, _, params, backend = setup
        recovered = backend.parameters()
        for name in params:
            np.testing.assert_array_equal(recovered[name], params[name])

    def test_forward_matches_software(self, setup):
        rng, network, params, backend = setup
        states = rng.standard_normal((3, 4, 84, 84)).astype(np.float32)
        hw_logits, hw_values = backend.forward(states)
        sw_logits, sw_values = network.forward(states, params)
        np.testing.assert_allclose(hw_logits, sw_logits, rtol=1e-4,
                                   atol=1e-5)
        np.testing.assert_allclose(hw_values, sw_values, rtol=1e-4,
                                   atol=1e-5)

    def test_training_trajectory_matches_software(self):
        rng = np.random.default_rng(7)
        network = A3CNetwork(num_actions=6)
        params = network.init_params(rng)
        backend = FPGANetworkBackend(network, params=params.copy())
        sw_params = params.copy()
        optimizer = RMSProp(learning_rate=7e-4)
        optimizer.attach(sw_params)

        for _ in range(3):
            states = rng.standard_normal((5, 4, 84, 84)) \
                .astype(np.float32)
            actions = rng.integers(0, 6, 5)
            returns = rng.standard_normal(5).astype(np.float32)

            logits, values = network.forward(states, sw_params)
            loss = a3c_loss_and_head_gradients(logits, values, actions,
                                               returns)
            grads = network.backward_and_grads(loss.dlogits,
                                               loss.dvalues, sw_params)
            optimizer.step(sw_params, grads)
            backend.train_step(states, actions, returns,
                               learning_rate=7e-4)

        hw_params = backend.parameters()
        for name in sw_params:
            np.testing.assert_allclose(hw_params[name], sw_params[name],
                                       rtol=1e-4, atol=1e-6)

    def test_load_parameters_syncs_from_software(self, setup):
        rng, network, _, backend = setup
        fresh = network.init_params(np.random.default_rng(99))
        backend.load_parameters(fresh)
        recovered = backend.parameters()
        for name in fresh:
            np.testing.assert_array_equal(recovered[name], fresh[name])

    def test_dram_traffic_recorded(self, setup):
        _, _, _, backend = setup
        traffic = backend.dram.total_traffic()
        assert traffic.loaded_words > 0
        assert traffic.stored_words > 0

    def test_train_step_returns_finite_loss(self, setup):
        rng, _, _, backend = setup
        states = rng.standard_normal((5, 4, 84, 84)).astype(np.float32)
        loss = backend.train_step(states, np.zeros(5, dtype=np.int64),
                                  np.zeros(5, dtype=np.float32))
        assert np.isfinite(loss)
