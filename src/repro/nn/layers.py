"""Layer objects with explicit FW / BW / GC stages.

Layers are *stateless with respect to parameters*: every call takes a
:class:`~repro.nn.parameters.ParameterSet`, so an A3C agent can run the same
network object against its local θ for inference and compute gradients
against the same local θ during training, exactly as the paper's dataflow
does.  Layers do cache forward activations (feature maps), mirroring FA3C's
decision to store forward feature maps in DRAM for reuse by the training
task instead of recomputing them (Section 4.3).
"""

from __future__ import annotations

import typing

import numpy as np

from repro.nn import functional as F
from repro.nn.initializers import torch_dqn_init, zeros
from repro.nn.parameters import ParameterSet

Shape = typing.Tuple[int, ...]


class Layer:
    """Base class for all layers."""

    def __init__(self, name: str):
        self.name = name
        #: Optional :class:`~repro.nn.quant.PrecisionPolicy`; ``None``
        #: (the fp32 reference path) adds no calls at all.
        self.policy = None

    def param_shapes(self) -> typing.Dict[str, Shape]:
        """Mapping of parameter name -> shape; empty for stateless layers."""
        return {}

    def init_params(self, params: ParameterSet,
                    rng: typing.Optional[np.random.Generator] = None,
                    weight_init=torch_dqn_init, bias_init=zeros) -> None:
        """Write freshly initialised parameters into ``params``."""
        for suffix, shape in self.param_shapes().items():
            init = bias_init if suffix == "bias" else weight_init
            params[f"{self.name}.{suffix}"] = init(shape, rng)

    def output_shape(self, input_shape: Shape) -> Shape:
        """Shape of the output feature map for a given input shape."""
        raise NotImplementedError

    def forward(self, x: np.ndarray, params: ParameterSet) -> np.ndarray:
        """FW stage; caches whatever BW/GC later need."""
        raise NotImplementedError

    def backward_input(self, dy: np.ndarray,
                       params: ParameterSet) -> np.ndarray:
        """BW stage: gradient of the layer input."""
        raise NotImplementedError

    def grad_params(self, dy: np.ndarray, grads: ParameterSet) -> None:
        """GC stage: accumulate parameter gradients into ``grads``.

        GC reads only ``dy`` and the forward cache, never the input
        gradient of the layer below, so a network can skip the first
        layer's BW (nothing reads it) without changing any gradient.
        """
        for suffix, shape in self.param_shapes().items():
            key = f"{self.name}.{suffix}"
            if key not in grads:
                grads[key] = np.zeros(shape, dtype=np.float32)

    def _forward_input(self, dy: np.ndarray) -> np.ndarray:
        """The input the last FW cached as ``_x``, checked against ``dy``:
        a ``dy`` for another batch raises instead of broadcasting into a
        wrong gradient."""
        x = self._x
        if x is None:
            raise RuntimeError(f"{self.name}: backward before forward")
        expected = (x.shape[0],) + self.output_shape(x.shape[1:])
        if dy.shape != expected:
            raise ValueError(f"{self.name}: dy shape {dy.shape} does not "
                             f"match the cached forward's output shape "
                             f"{expected}")
        return x

    def num_params(self) -> int:
        """Total scalar parameter count of this layer."""
        return sum(int(np.prod(s)) for s in self.param_shapes().values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"


class Conv2D(Layer):
    """VALID 2-D convolution with stride, as used by the A3C/DQN trunk."""

    def __init__(self, name: str, in_channels: int, out_channels: int,
                 kernel: int, stride: int):
        super().__init__(name)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self._x: typing.Optional[np.ndarray] = None

    def param_shapes(self) -> typing.Dict[str, Shape]:
        return {
            "weight": (self.out_channels, self.in_channels,
                       self.kernel, self.kernel),
            "bias": (self.out_channels,),
        }

    def output_shape(self, input_shape: Shape) -> Shape:
        c, h, w = input_shape
        if c != self.in_channels:
            raise ValueError(f"{self.name}: expected {self.in_channels} "
                             f"input channels, got {c}")
        oh = F.conv_output_size(h, self.kernel, self.stride)
        ow = F.conv_output_size(w, self.kernel, self.stride)
        return (self.out_channels, oh, ow)

    def forward(self, x: np.ndarray, params: ParameterSet) -> np.ndarray:
        x = np.ascontiguousarray(x, dtype=np.float32)
        if self.policy is not None:
            x = self.policy(x, f"{self.name}.act")
        self._x = x
        return F.conv_forward(x, params[f"{self.name}.weight"],
                              params[f"{self.name}.bias"], self.stride,
                              policy=self.policy, key=self.name)

    def backward_input(self, dy: np.ndarray,
                       params: ParameterSet) -> np.ndarray:
        x = self._forward_input(dy)
        return F.conv_backward_input(dy, params[f"{self.name}.weight"],
                                     self.stride, x.shape,
                                     policy=self.policy, key=self.name)

    def grad_params(self, dy: np.ndarray, grads: ParameterSet) -> None:
        x = self._forward_input(dy)
        super().grad_params(dy, grads)
        weight_shape = self.param_shapes()["weight"]
        dw, db = F.conv_grad_params(x, dy, weight_shape, self.stride)
        grads[f"{self.name}.weight"] += dw
        grads[f"{self.name}.bias"] += db


class Dense(Layer):
    """Fully-connected layer; input ``(N, in_features)``."""

    def __init__(self, name: str, in_features: int, out_features: int):
        super().__init__(name)
        self.in_features = in_features
        self.out_features = out_features
        self._x: typing.Optional[np.ndarray] = None

    def param_shapes(self) -> typing.Dict[str, Shape]:
        return {
            "weight": (self.out_features, self.in_features),
            "bias": (self.out_features,),
        }

    def output_shape(self, input_shape: Shape) -> Shape:
        (features,) = input_shape
        if features != self.in_features:
            raise ValueError(f"{self.name}: expected {self.in_features} "
                             f"input features, got {features}")
        return (self.out_features,)

    def forward(self, x: np.ndarray, params: ParameterSet) -> np.ndarray:
        x = np.ascontiguousarray(x, dtype=np.float32)
        if self.policy is not None:
            x = self.policy(x, f"{self.name}.act")
        self._x = x
        return F.dense_forward(x, params[f"{self.name}.weight"],
                               params[f"{self.name}.bias"],
                               policy=self.policy, key=self.name)

    def backward_input(self, dy: np.ndarray,
                       params: ParameterSet) -> np.ndarray:
        self._forward_input(dy)
        return F.dense_backward_input(dy, params[f"{self.name}.weight"],
                                      policy=self.policy, key=self.name)

    def grad_params(self, dy: np.ndarray, grads: ParameterSet) -> None:
        x = self._forward_input(dy)
        super().grad_params(dy, grads)
        dw, db = F.dense_grad_params(x, dy)
        grads[f"{self.name}.weight"] += dw
        grads[f"{self.name}.bias"] += db


class ReLU(Layer):
    """Rectified linear activation."""

    def __init__(self, name: str):
        super().__init__(name)
        self._x: typing.Optional[np.ndarray] = None

    def output_shape(self, input_shape: Shape) -> Shape:
        return input_shape

    def forward(self, x: np.ndarray, params: ParameterSet) -> np.ndarray:
        del params
        self._x = x
        return F.relu_forward(x)

    def backward_input(self, dy: np.ndarray,
                       params: ParameterSet) -> np.ndarray:
        del params
        if self._x is None:
            raise RuntimeError(f"{self.name}: backward before forward")
        return F.relu_backward(dy, self._x)

    def grad_params(self, dy: np.ndarray, grads: ParameterSet) -> None:
        del dy, grads  # no parameters


class Flatten(Layer):
    """Reshape ``(N, C, H, W)`` to ``(N, C*H*W)``."""

    def __init__(self, name: str):
        super().__init__(name)
        self._input_shape: typing.Optional[Shape] = None

    def output_shape(self, input_shape: Shape) -> Shape:
        return (int(np.prod(input_shape)),)

    def forward(self, x: np.ndarray, params: ParameterSet) -> np.ndarray:
        del params
        self._input_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward_input(self, dy: np.ndarray,
                       params: ParameterSet) -> np.ndarray:
        del params
        if self._input_shape is None:
            raise RuntimeError(f"{self.name}: backward before forward")
        return dy.reshape(self._input_shape)

    def grad_params(self, dy: np.ndarray, grads: ParameterSet) -> None:
        del dy, grads  # no parameters
