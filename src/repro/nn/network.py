"""Network containers and the A3C network topology (paper Table 1).

:class:`A3CNetwork` implements the exact DNN of Table 1: two convolutions,
one hidden fully-connected layer, and a final fully-connected layer whose
outputs are split into action logits and the state value.  The paper's
hardware pads the final layer to 32 outputs (8K parameters = 256x32 + 32);
we keep that padding so the software model and the FPGA simulator account
identical parameter traffic.

:class:`NetworkTopology` is the hardware-facing description (channel counts,
kernel sizes, feature-map dimensions) consumed by the FPGA timing model,
the GPU cost model, and the off-chip-traffic calculator.
"""

from __future__ import annotations

import dataclasses
import typing

import numpy as np

from repro.nn.initializers import torch_dqn_init, zeros
from repro.nn.layers import Conv2D, Dense, Flatten, Layer, ReLU
from repro.nn.parameters import ParameterSet
from repro.nn.quant import policy_for

Shape = typing.Tuple[int, ...]

WORD_BYTES = 4  # single-precision float, the only datatype FA3C uses


@dataclasses.dataclass(frozen=True)
class LayerSpec:
    """Hardware-facing description of one parameterised layer.

    A fully-connected layer is described as a convolution with
    ``R = C = K = 1`` (paper Section 4.2.1): each input feature is its own
    input channel and each output feature its own output channel.
    """

    name: str
    kind: str                 # "conv" or "dense"
    in_channels: int          # I
    out_channels: int         # O
    kernel: int               # K (1 for dense)
    stride: int               # S (1 for dense)
    in_height: int            # input feature-map height (1 for dense)
    in_width: int             # input feature-map width  (C_in for dense: 1)
    out_height: int           # R
    out_width: int            # C

    @property
    def num_weights(self) -> int:
        """Weight count, excluding bias."""
        return self.out_channels * self.in_channels * self.kernel ** 2

    @property
    def num_params(self) -> int:
        """Weights plus biases."""
        return self.num_weights + self.out_channels

    @property
    def num_outputs(self) -> int:
        """Output feature-map size O*R*C."""
        return self.out_channels * self.out_height * self.out_width

    @property
    def num_inputs(self) -> int:
        """Input feature-map size."""
        return self.in_channels * self.in_height * self.in_width

    @property
    def accumulation_frequency_fw(self) -> int:
        """Values accumulated per FW output element: I*K^2 + 1 (bias)."""
        return self.in_channels * self.kernel ** 2 + 1

    def accumulation_frequency_gc(self, batch_size: int) -> int:
        """Values accumulated per GC weight gradient.

        For dense layers this equals the batch size (Section 4.2.1); for
        convolutions each weight additionally reduces over output pixels.
        """
        return batch_size * self.out_height * self.out_width

    def macs_fw(self, batch_size: int) -> int:
        """Multiply-accumulate count of the FW stage."""
        return batch_size * self.num_outputs * \
            (self.in_channels * self.kernel ** 2)

    def macs_bw(self, batch_size: int) -> int:
        """MAC count of the BW stage (same volume as FW)."""
        return self.macs_fw(batch_size)

    def macs_gc(self, batch_size: int) -> int:
        """MAC count of the GC stage."""
        return self.num_weights * self.accumulation_frequency_gc(batch_size)


@dataclasses.dataclass(frozen=True)
class NetworkTopology:
    """The ordered parameterised layers of a network, plus the input shape."""

    input_shape: Shape                      # (C, H, W)
    layers: typing.Tuple[LayerSpec, ...]

    @property
    def num_params(self) -> int:
        """Total parameters over all layers."""
        return sum(spec.num_params for spec in self.layers)

    @property
    def param_bytes(self) -> int:
        """Total fp32 parameter storage in bytes."""
        return self.num_params * WORD_BYTES

    @property
    def input_features(self) -> int:
        return int(np.prod(self.input_shape))

    @property
    def input_bytes(self) -> int:
        return self.input_features * WORD_BYTES

    def feature_map_bytes(self) -> int:
        """fp32 bytes of all intermediate output feature maps."""
        return sum(spec.num_outputs for spec in self.layers) * WORD_BYTES

    def table1_rows(self) -> typing.List[typing.Dict[str, object]]:
        """Rows matching paper Table 1 (layer, #params, #output features)."""
        rows = [{"layer": "Input", "params": 0,
                 "outputs": self.input_features}]
        for spec in self.layers:
            label = spec.name
            if spec.kind == "conv":
                label += f" (filter: {spec.kernel}x{spec.kernel}, " \
                         f"stride: {spec.stride})"
            rows.append({"layer": label, "params": spec.num_params,
                         "outputs": spec.num_outputs})
        return rows


class Sequential:
    """A plain feed-forward stack of layers sharing one ParameterSet."""

    def __init__(self, layers: typing.Sequence[Layer], input_shape: Shape):
        self.layers = list(layers)
        self.input_shape = tuple(input_shape)
        self._first_with_params = next(
            (index for index, layer in enumerate(self.layers)
             if layer.param_shapes()), len(self.layers))
        # Validate shape compatibility eagerly.
        shape = self.input_shape
        self._shapes = [shape]
        for layer in self.layers:
            shape = layer.output_shape(shape)
            self._shapes.append(shape)

    @property
    def output_shape(self) -> Shape:
        return self._shapes[-1]

    def set_policy(self, policy) -> None:
        """Install one precision policy on every layer (``None`` = fp32).

        The shared policy gives the quantized datapath one calibration
        state across the stack; keys stay distinct per layer/tensor.
        """
        for layer in self.layers:
            layer.policy = policy

    def init_params(self, rng: typing.Optional[np.random.Generator] = None,
                    weight_init=torch_dqn_init,
                    bias_init=zeros) -> ParameterSet:
        """Fresh parameters for every layer, in layer order."""
        params = ParameterSet()
        for layer in self.layers:
            layer.init_params(params, rng, weight_init, bias_init)
        return params

    def forward(self, x: np.ndarray, params: ParameterSet) -> np.ndarray:
        """FW through every layer, caching activations for training."""
        for layer in self.layers:
            x = layer.forward(x, params)
        return x

    def backward_and_grads(self, dy: np.ndarray,
                           params: ParameterSet) -> ParameterSet:
        """Run GC then BW per layer from last to first (paper Section 4.3).

        Returns the parameter gradients.  Like FA3C's training task, which
        runs BW only above the first layer, BW stops at the first layer
        with parameters: its input gradient (and that of any
        parameter-free layer below it) would feed nothing.
        """
        grads = ParameterSet()
        for index in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[index]
            layer.grad_params(dy, grads)
            if index > self._first_with_params:
                dy = layer.backward_input(dy, params)
        return grads

    def topology(self) -> NetworkTopology:
        """Hardware-facing description of the parameterised layers."""
        specs = []
        for index, layer in enumerate(self.layers):
            in_shape = self._shapes[index]
            out_shape = self._shapes[index + 1]
            if isinstance(layer, Conv2D):
                specs.append(LayerSpec(
                    name=layer.name, kind="conv",
                    in_channels=layer.in_channels,
                    out_channels=layer.out_channels,
                    kernel=layer.kernel, stride=layer.stride,
                    in_height=in_shape[1], in_width=in_shape[2],
                    out_height=out_shape[1], out_width=out_shape[2]))
            elif isinstance(layer, Dense):
                specs.append(LayerSpec(
                    name=layer.name, kind="dense",
                    in_channels=layer.in_features,
                    out_channels=layer.out_features,
                    kernel=1, stride=1,
                    in_height=1, in_width=1, out_height=1, out_width=1))
        return NetworkTopology(input_shape=self.input_shape,
                               layers=tuple(specs))


class A3CNetwork:
    """The Table 1 network with softmax policy and linear value heads.

    The final fully-connected layer (FC4) has ``fc4_width`` outputs
    (default 32, as the paper's hardware pads it); logits occupy the first
    ``num_actions`` slots and the value the next one.  Padding outputs
    receive zero gradient, so they never train and never affect results.
    """

    DEFAULT_INPUT_SHAPE: Shape = (4, 84, 84)

    def __init__(self, num_actions: int,
                 input_shape: Shape = DEFAULT_INPUT_SHAPE,
                 fc4_width: int = 32, hidden: int = 256,
                 conv_channels: typing.Tuple[int, int] = (16, 32),
                 precision: str = "fp32"):
        if num_actions + 1 > fc4_width:
            raise ValueError(f"fc4_width={fc4_width} too small for "
                             f"{num_actions} actions plus a value output")
        self.num_actions = num_actions
        self.fc4_width = fc4_width
        c1, c2 = conv_channels
        in_c = input_shape[0]
        conv1 = Conv2D("Conv1", in_c, c1, kernel=8, stride=4)
        conv2 = Conv2D("Conv2", c1, c2, kernel=4, stride=2)
        conv2_out = conv2.output_shape(conv1.output_shape(input_shape))
        flat = int(np.prod(conv2_out))
        self.model = Sequential([
            conv1,
            ReLU("ReLU1"),
            conv2,
            ReLU("ReLU2"),
            Flatten("Flatten"),
            Dense("FC3", flat, hidden),
            ReLU("ReLU3"),
            Dense("FC4", hidden, fc4_width),
        ], input_shape)
        self.precision = precision
        self.policy = policy_for(precision)
        if self.policy is not None:
            self.model.set_policy(self.policy)

    @property
    def input_shape(self) -> Shape:
        return self.model.input_shape

    def init_params(self, rng: typing.Optional[np.random.Generator] = None
                    ) -> ParameterSet:
        """Fresh fan-in-uniform parameters (matching the reference A3C)."""
        return self.model.init_params(rng)

    def forward(self, states: np.ndarray, params: ParameterSet
                ) -> typing.Tuple[np.ndarray, np.ndarray]:
        """FW pass; returns (logits ``(N, A)``, values ``(N,)``)."""
        out = self.model.forward(states, params)
        logits = out[:, :self.num_actions]
        values = out[:, self.num_actions]
        return logits, values

    def backward_and_grads(self, dlogits: np.ndarray, dvalues: np.ndarray,
                           params: ParameterSet) -> ParameterSet:
        """BW + GC from the head gradients; returns parameter gradients.

        ``dlogits`` is ``(N, A)``, ``dvalues`` is ``(N,)``.  The padded FC4
        outputs receive zero gradient.
        """
        n = dlogits.shape[0]
        dy = np.zeros((n, self.fc4_width), dtype=np.float32)
        dy[:, :self.num_actions] = dlogits
        dy[:, self.num_actions] = dvalues
        return self.model.backward_and_grads(dy, params)

    def topology(self) -> NetworkTopology:
        """Table 1 description for the hardware models."""
        return self.model.topology()


class MLPPolicyNetwork:
    """A small dense policy/value network for non-pixel environments.

    Same interface as :class:`A3CNetwork` (forward -> (logits, values),
    backward_and_grads, init_params, topology) but with a
    flatten-dense-ReLU trunk, so the A3C core can be exercised quickly on
    the classic-control environments in tests and the quickstart example.
    """

    def __init__(self, num_actions: int, input_shape: Shape,
                 hidden: int = 64, precision: str = "fp32"):
        self.num_actions = num_actions
        features = int(np.prod(input_shape))
        self.model = Sequential([
            Flatten("Flatten"),
            Dense("FC1", features, hidden),
            ReLU("ReLU1"),
            Dense("FC2", hidden, num_actions + 1),
        ], input_shape)
        self.precision = precision
        self.policy = policy_for(precision)
        if self.policy is not None:
            self.model.set_policy(self.policy)

    @property
    def input_shape(self) -> Shape:
        return self.model.input_shape

    def init_params(self, rng: typing.Optional[np.random.Generator] = None
                    ) -> ParameterSet:
        return self.model.init_params(rng)

    def forward(self, states: np.ndarray, params: ParameterSet
                ) -> typing.Tuple[np.ndarray, np.ndarray]:
        out = self.model.forward(states, params)
        return out[:, :self.num_actions], out[:, self.num_actions]

    def backward_and_grads(self, dlogits: np.ndarray, dvalues: np.ndarray,
                           params: ParameterSet) -> ParameterSet:
        n = dlogits.shape[0]
        dy = np.zeros((n, self.num_actions + 1), dtype=np.float32)
        dy[:, :self.num_actions] = dlogits
        dy[:, self.num_actions] = dvalues
        return self.model.backward_and_grads(dy, params)

    def topology(self) -> NetworkTopology:
        return self.model.topology()
