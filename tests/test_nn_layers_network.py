"""Tests for the layer objects and the Table 1 network topology."""

import numpy as np
import pytest

from repro.nn import (
    A3CNetwork,
    Conv2D,
    Dense,
    Flatten,
    ParameterSet,
    ReLU,
    Sequential,
)
from repro.nn.gradcheck import check_param_gradients
from repro.nn.network import MLPPolicyNetwork
from repro.nn.network_lstm import lstm_a3c_network


class TestLayerContracts:
    def test_conv_param_shapes(self):
        conv = Conv2D("c", 4, 16, kernel=8, stride=4)
        shapes = conv.param_shapes()
        assert shapes["weight"] == (16, 4, 8, 8)
        assert shapes["bias"] == (16,)
        assert conv.num_params() == 4112

    def test_conv_output_shape_validates_channels(self):
        conv = Conv2D("c", 4, 16, kernel=8, stride=4)
        with pytest.raises(ValueError):
            conv.output_shape((3, 84, 84))

    def test_backward_before_forward_raises(self):
        conv = Conv2D("c", 1, 1, kernel=2, stride=1)
        params = ParameterSet()
        conv.init_params(params)
        with pytest.raises(RuntimeError):
            conv.backward_input(np.zeros((1, 1, 2, 2), dtype=np.float32),
                                params)

    def test_dense_shape_validation(self):
        dense = Dense("d", 10, 5)
        with pytest.raises(ValueError):
            dense.output_shape((9,))
        assert dense.output_shape((10,)) == (5,)

    def test_relu_and_flatten_have_no_params(self):
        assert ReLU("r").param_shapes() == {}
        assert Flatten("f").param_shapes() == {}

    def test_flatten_round_trip(self):
        flat = Flatten("f")
        params = ParameterSet()
        x = np.arange(24, dtype=np.float32).reshape(2, 3, 2, 2)
        y = flat.forward(x, params)
        assert y.shape == (2, 12)
        back = flat.backward_input(y, params)
        np.testing.assert_array_equal(back, x)

    def test_init_params_uses_layer_names(self):
        dense = Dense("FC9", 4, 3)
        params = ParameterSet()
        dense.init_params(params, np.random.default_rng(0))
        assert "FC9.weight" in params
        assert "FC9.bias" in params


class TestSequential:
    def test_shape_validation_at_construction(self):
        with pytest.raises(ValueError):
            Sequential([Dense("d", 10, 5)], input_shape=(9,))

    def test_gradcheck_small_stack(self):
        rng = np.random.default_rng(0)
        model = Sequential([
            Conv2D("c1", 2, 3, kernel=3, stride=2),
            ReLU("r1"),
            Flatten("f"),
            Dense("d1", 3 * 3 * 3, 4),
        ], input_shape=(2, 7, 7))
        params = model.init_params(rng)
        x = rng.standard_normal((2, 2, 7, 7)).astype(np.float64)
        target = rng.standard_normal((2, 4))

        def loss():
            y = model.forward(x.astype(np.float32), params)
            return float((y * target).sum())

        loss()  # populate caches
        grads = model.backward_and_grads(target.astype(np.float32), params)
        for name in params:
            params[name] = params[name].astype(np.float64)
        check_param_gradients(loss, params, grads, eps=1e-4)


class TestA3CNetworkTable1:
    """The exact Table 1 numbers."""

    @pytest.fixture(scope="class")
    def topology(self):
        return A3CNetwork(num_actions=6).topology()

    def test_input_features(self, topology):
        assert topology.input_features == 28224  # "28K"

    def test_conv1_row(self, topology):
        conv1 = topology.layers[0]
        assert conv1.num_params == 4112          # "4K"
        assert conv1.num_outputs == 6400         # "6K"
        assert (conv1.kernel, conv1.stride) == (8, 4)

    def test_conv2_row(self, topology):
        conv2 = topology.layers[1]
        assert conv2.num_params == 8224          # "8K"
        assert conv2.num_outputs == 2592         # "3K"
        assert (conv2.kernel, conv2.stride) == (4, 2)

    def test_fc3_row(self, topology):
        fc3 = topology.layers[2]
        assert fc3.num_params == 663808          # "664K"
        assert fc3.num_outputs == 256

    def test_fc4_row(self, topology):
        fc4 = topology.layers[3]
        assert fc4.num_params == 8224            # "8K"
        assert fc4.num_outputs == 32

    def test_total_parameters(self, topology):
        assert topology.num_params == 684368
        # ~2.6 MB of fp32, the paper's "2,592KB" parameter set
        assert topology.param_bytes == 684368 * 4

    def test_table1_rows_render(self, topology):
        rows = topology.table1_rows()
        assert rows[0]["layer"] == "Input"
        assert rows[1]["params"] == 4112
        assert len(rows) == 5


class TestA3CNetworkBehaviour:
    def test_forward_shapes(self):
        net = A3CNetwork(num_actions=6)
        params = net.init_params(np.random.default_rng(0))
        x = np.zeros((3, 4, 84, 84), dtype=np.float32)
        logits, values = net.forward(x, params)
        assert logits.shape == (3, 6)
        assert values.shape == (3,)

    def test_fc4_width_must_fit_heads(self):
        with pytest.raises(ValueError):
            A3CNetwork(num_actions=32, fc4_width=32)

    def test_padded_outputs_receive_no_gradient(self):
        net = A3CNetwork(num_actions=6)
        params = net.init_params(np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal(
            (2, 4, 84, 84)).astype(np.float32)
        net.forward(x, params)
        grads = net.backward_and_grads(
            np.ones((2, 6), dtype=np.float32),
            np.ones(2, dtype=np.float32), params)
        fc4_grad = grads["FC4.weight"]
        np.testing.assert_array_equal(fc4_grad[7:], 0.0)
        assert np.abs(fc4_grad[:7]).max() > 0

    def test_deterministic_init(self):
        net = A3CNetwork(num_actions=4)
        a = net.init_params(np.random.default_rng(5))
        b = net.init_params(np.random.default_rng(5))
        assert a.allclose(b)


class TestMLPPolicyNetwork:
    def test_forward_and_backward(self):
        net = MLPPolicyNetwork(num_actions=3, input_shape=(7, 7))
        params = net.init_params(np.random.default_rng(0))
        x = np.zeros((2, 7, 7), dtype=np.float32)
        logits, values = net.forward(x, params)
        assert logits.shape == (2, 3)
        grads = net.backward_and_grads(np.ones_like(logits),
                                       np.ones(2, dtype=np.float32),
                                       params)
        assert "FC2.weight" in grads


def _full_chain(layers, dy, params, grads):
    """Reference backward: GC then BW through every layer, the first
    one included."""
    for layer in reversed(layers):
        layer.grad_params(dy, grads)
        dy = layer.backward_input(dy, params)
    return dy


def _head_dy(dlogits, dvalues, width):
    dy = np.zeros((dlogits.shape[0], width), dtype=np.float32)
    dy[:, :dlogits.shape[1]] = dlogits
    dy[:, dlogits.shape[1]] = dvalues
    return dy


def _feed_forward_case(net, batch, rng):
    params = net.init_params(rng)
    states = rng.standard_normal((batch,) + net.input_shape)
    net.forward(states.astype(np.float32), params)
    width = net.model.output_shape[0]

    def reference(dlogits, dvalues):
        grads = ParameterSet()
        _full_chain(net.model.layers, _head_dy(dlogits, dvalues, width),
                    params, grads)
        return grads
    return net.model.layers, params, reference


def _lstm_case(net, batch, rng):
    params = net.init_params(rng)
    states = rng.standard_normal((batch,) + net.input_shape)
    net.forward_rollout(states.astype(np.float32), params,
                        net.initial_state())

    def reference(dlogits, dvalues):
        grads = ParameterSet()
        dh = _full_chain([net.head], _head_dy(dlogits, dvalues,
                                              net.head_width),
                         params, grads)
        dxs = net.lstm.backward_sequence(dh[:, None, :], net._caches,
                                         params, grads)
        _full_chain(net.trunk.layers, dxs[:, 0, :], params, grads)
        return grads
    return net.trunk.layers, params, reference


NETWORKS = {
    "a3c": (lambda: A3CNetwork(num_actions=6), _feed_forward_case, 5),
    "mlp": (lambda: MLPPolicyNetwork(num_actions=3, input_shape=(7, 7)),
            _feed_forward_case, 4),
    "lstm": (lambda: lstm_a3c_network(num_actions=6), _lstm_case, 5),
}


class TestBackwardSkipsFirstLayerBW:
    """Backward runs GC for every layer but no BW at or below the first
    layer with parameters: nothing reads that input gradient, and no GC
    reads the input gradient of the layer below it."""

    @pytest.fixture(params=sorted(NETWORKS))
    def case(self, request):
        rng = np.random.default_rng(11)
        make, build, batch = NETWORKS[request.param]
        net = make()
        layers, params, reference = build(net, batch, rng)
        dlogits = rng.standard_normal((batch, net.num_actions)) \
            .astype(np.float32)
        dvalues = rng.standard_normal(batch).astype(np.float32)
        return net, layers, params, reference, dlogits, dvalues

    def test_grads_byte_equal_to_full_chain(self, case):
        net, _, params, reference, dlogits, dvalues = case
        expected = reference(dlogits, dvalues)
        grads = net.backward_and_grads(dlogits, dvalues, params)
        assert sorted(grads.names()) == sorted(params.names())
        for name in expected:
            assert grads[name].tobytes() == expected[name].tobytes(), name

    def test_first_layer_bw_never_runs(self, case):
        net, layers, params, reference, dlogits, dvalues = case
        expected = reference(dlogits, dvalues)

        def unread(*_args):
            raise AssertionError("BW of a layer nothing reads")

        first = next(index for index, layer in enumerate(layers)
                     if layer.param_shapes())
        for layer in layers[:first + 1]:
            layer.backward_input = unread
        grads = net.backward_and_grads(dlogits, dvalues, params)
        for name in expected:
            assert grads[name].tobytes() == expected[name].tobytes(), name


class TestStaleForwardCache:
    """A dy that does not belong to the cached forward raises a
    ValueError naming the layer and both shapes, in GC and in BW."""

    def _conv(self):
        conv = Conv2D("c1", 2, 3, kernel=3, stride=2)
        params = ParameterSet()
        conv.init_params(params, np.random.default_rng(0))
        conv.forward(np.ones((1, 2, 7, 7), dtype=np.float32), params)
        return conv, params, np.ones((5, 3, 3, 3), dtype=np.float32)

    def _dense(self):
        dense = Dense("d1", 6, 4)
        params = ParameterSet()
        dense.init_params(params, np.random.default_rng(0))
        dense.forward(np.ones((1, 6), dtype=np.float32), params)
        return dense, params, np.ones((5, 4), dtype=np.float32)

    def test_conv_grad_params(self):
        conv, params, dy = self._conv()
        with pytest.raises(ValueError, match=r"c1: dy shape \(5, 3, 3, 3\)"
                           r".*\(1, 3, 3, 3\)"):
            conv.grad_params(dy, ParameterSet())

    def test_conv_backward_input(self):
        conv, params, dy = self._conv()
        with pytest.raises(ValueError, match=r"c1: dy shape \(5, 3, 3, 3\)"
                           r".*\(1, 3, 3, 3\)"):
            conv.backward_input(dy, params)

    def test_dense_grad_params(self):
        dense, params, dy = self._dense()
        with pytest.raises(ValueError,
                           match=r"d1: dy shape \(5, 4\).*\(1, 4\)"):
            dense.grad_params(dy, ParameterSet())

    def test_dense_backward_input(self):
        dense, params, dy = self._dense()
        with pytest.raises(ValueError,
                           match=r"d1: dy shape \(5, 4\).*\(1, 4\)"):
            dense.backward_input(dy, params)

    def test_network_backward_after_other_batch_forward(self):
        net = A3CNetwork(num_actions=6)
        params = net.init_params(np.random.default_rng(0))
        net.forward(np.zeros((1, 4, 84, 84), dtype=np.float32), params)
        with pytest.raises(ValueError, match=r"FC4: dy shape \(5, 32\)"):
            net.backward_and_grads(np.zeros((5, 6), dtype=np.float32),
                                   np.zeros(5, dtype=np.float32), params)
