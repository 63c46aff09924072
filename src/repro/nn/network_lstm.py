"""The recurrent (LSTM) A3C network variant.

The original A3C publication additionally evaluates an agent with 256
LSTM cells after the final hidden layer; FA3C's generic-PE design argument
(Section 4.2.1) explicitly covers such extra layer types, since the LSTM's
matrix-vector products are yet another accumulation frequency on the same
PEs.  :class:`RecurrentPolicyNetwork` composes any feed-forward trunk with
an LSTM and the padded policy/value head; :func:`lstm_a3c_network` builds
the Table 1 trunk variant.

Training uses truncated backpropagation through time over one rollout
(t_max steps), with the carry saved at the rollout boundary — exactly the
original A3C-LSTM procedure.
"""

from __future__ import annotations

import typing

import numpy as np

from repro.nn.layers import Conv2D, Dense, Flatten, ReLU
from repro.nn.network import Sequential, Shape
from repro.nn.parameters import ParameterSet
from repro.nn.recurrent import LSTMCell, LSTMState


class RecurrentPolicyNetwork:
    """trunk -> LSTM -> padded policy/value head."""

    def __init__(self, trunk: Sequential, num_actions: int,
                 lstm_hidden: int = 256,
                 head_width: typing.Optional[int] = None):
        (trunk_out,) = trunk.output_shape
        self.trunk = trunk
        self.num_actions = num_actions
        self.lstm = LSTMCell("LSTM", trunk_out, lstm_hidden)
        self.head_width = head_width or max(num_actions + 1, 32)
        if num_actions + 1 > self.head_width:
            raise ValueError("head too narrow for actions + value")
        self.head = Dense("FC4", lstm_hidden, self.head_width)
        self._caches: typing.Optional[list] = None

    @property
    def input_shape(self) -> Shape:
        return self.trunk.input_shape

    def init_params(self, rng: typing.Optional[np.random.Generator] = None
                    ) -> ParameterSet:
        params = self.trunk.init_params(rng)
        self.lstm.init_params(params, rng)
        self.head.init_params(params, rng)
        return params

    def initial_state(self) -> LSTMState:
        """A zero carry for one agent (batch 1)."""
        return self.lstm.zero_state(1)

    def _split_head(self, out: np.ndarray
                    ) -> typing.Tuple[np.ndarray, np.ndarray]:
        return out[:, :self.num_actions], out[:, self.num_actions]

    def forward_step(self, state: np.ndarray, params: ParameterSet,
                     carry: LSTMState
                     ) -> typing.Tuple[np.ndarray, np.ndarray, LSTMState]:
        """One inference step: (logits ``(1, A)``, value ``(1,)``, new
        carry)."""
        features = self.trunk.forward(state.astype(np.float32), params)
        h, carry, _ = self.lstm.step(features, carry, params)
        logits, values = self._split_head(self.head.forward(h, params))
        return logits, values, carry

    def forward_rollout(self, states: np.ndarray, params: ParameterSet,
                        carry: LSTMState
                        ) -> typing.Tuple[np.ndarray, np.ndarray,
                                          LSTMState]:
        """FW over a whole rollout ``(T, ...)`` for training.

        The trunk runs as one batch (it is feed-forward); the LSTM runs
        the T steps sequentially from the rollout's saved carry.  Caches
        are kept for :meth:`backward_and_grads`.
        """
        features = self.trunk.forward(states.astype(np.float32), params)
        xs = features[:, None, :]                    # (T, N=1, F)
        hs, carry, caches = self.lstm.forward_sequence(xs, carry.copy(),
                                                       params)
        self._caches = caches
        out = self.head.forward(hs[:, 0, :], params)
        logits, values = self._split_head(out)
        return logits, values, carry

    def backward_and_grads(self, dlogits: np.ndarray,
                           dvalues: np.ndarray,
                           params: ParameterSet) -> ParameterSet:
        """Truncated BPTT over the cached rollout."""
        if self._caches is None:
            raise RuntimeError("backward before forward_rollout")
        t_steps = dlogits.shape[0]
        dy = np.zeros((t_steps, self.head_width), dtype=np.float32)
        dy[:, :self.num_actions] = dlogits
        dy[:, self.num_actions] = dvalues
        grads = ParameterSet()
        self.head.grad_params(dy, grads)
        dh = self.head.backward_input(dy, params)
        dxs = self.lstm.backward_sequence(dh[:, None, :], self._caches,
                                          params, grads)
        trunk_grads = self.trunk.backward_and_grads(dxs[:, 0, :], params)
        for name, value in trunk_grads.items():
            grads[name] = value
        return grads

    def num_params(self) -> int:
        total = sum(layer.num_params() for layer in self.trunk.layers)
        return total + self.lstm.num_params() + self.head.num_params()

    def topology(self):
        """Hardware-facing description for the FPGA/GPU cost models.

        The LSTM step is, from the datapath's point of view, one dense
        layer of shape ``4H x (I + H)`` (the gate nonlinearities ride in
        the PE output path like ReLU does), so it appears as a dense
        :class:`~repro.nn.network.LayerSpec` — exactly the "yet another
        accumulation frequency on the same PEs" argument of paper
        Section 4.2.1.
        """
        from repro.nn.network import LayerSpec, NetworkTopology
        trunk_topology = self.trunk.topology()
        lstm_spec = LayerSpec(
            name="LSTM", kind="dense",
            in_channels=self.lstm.input_size + self.lstm.hidden_size,
            out_channels=4 * self.lstm.hidden_size,
            kernel=1, stride=1, in_height=1, in_width=1,
            out_height=1, out_width=1)
        head_spec = LayerSpec(
            name="FC4", kind="dense",
            in_channels=self.lstm.hidden_size,
            out_channels=self.head_width,
            kernel=1, stride=1, in_height=1, in_width=1,
            out_height=1, out_width=1)
        return NetworkTopology(
            input_shape=trunk_topology.input_shape,
            layers=trunk_topology.layers + (lstm_spec, head_spec))


def lstm_a3c_network(num_actions: int,
                     input_shape: Shape = (4, 84, 84),
                     lstm_hidden: int = 256) -> RecurrentPolicyNetwork:
    """The A3C-LSTM agent: Table 1 conv trunk + FC3 + 256 LSTM cells."""
    conv1 = Conv2D("Conv1", input_shape[0], 16, kernel=8, stride=4)
    conv2 = Conv2D("Conv2", 16, 32, kernel=4, stride=2)
    conv2_out = conv2.output_shape(conv1.output_shape(input_shape))
    flat = int(np.prod(conv2_out))
    trunk = Sequential([
        conv1, ReLU("ReLU1"), conv2, ReLU("ReLU2"), Flatten("Flatten"),
        Dense("FC3", flat, 256), ReLU("ReLU3"),
    ], input_shape)
    return RecurrentPolicyNetwork(trunk, num_actions,
                                  lstm_hidden=lstm_hidden)


def mlp_lstm_network(num_actions: int, input_shape: Shape,
                     hidden: int = 32,
                     lstm_hidden: int = 32) -> RecurrentPolicyNetwork:
    """A small dense-trunk recurrent network for tests and examples."""
    features = int(np.prod(input_shape))
    trunk = Sequential([
        Flatten("Flatten"),
        Dense("FC1", features, hidden),
        ReLU("ReLU1"),
    ], input_shape)
    return RecurrentPolicyNetwork(trunk, num_actions,
                                  lstm_hidden=lstm_hidden,
                                  head_width=num_actions + 1)
