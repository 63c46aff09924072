"""A network backend that computes through the simulated FA3C hardware.

:class:`FPGANetworkBackend` exposes the same interface as
:class:`repro.nn.network.A3CNetwork` (``forward`` /
``backward_and_grads`` / parameter application) but every FW, BW, and GC
runs through a :class:`~repro.fpga.cu.ComputeUnit`:

* parameters live as Figure 7c patch images in a :class:`DRAMModel`
  (single copy per layer — the single-copy-in-DRAM invariant);
* FW loads the FW layout, BW loads the BW layout through the
  (optionally register-level) TLU path;
* gradients come back as FW-layout images, and
  :meth:`apply_gradients` routes them through the
  :class:`~repro.fpga.rmsprop_module.RMSPropModule` RUs against the
  global theta/g images.

Because every step is fp32 with the same reduction structure, results are
bit-comparable with the software path — asserted by the integration tests
— which is the reproduction's analogue of the paper's Section 5.6 claim
that "the FA3C platform correctly trains the A3C DNNs".
"""

from __future__ import annotations

import typing

import numpy as np

from repro.fpga.cu import ComputeUnit
from repro.fpga.dram import DRAMModel
from repro.fpga.layouts import (
    dram_image_from_fw,
    fw_layout,
    fw_layout_to_weight,
    load_fw_from_dram,
)
from repro.fpga.rmsprop_module import RMSPropModule
from repro.nn import functional as F
from repro.nn.network import A3CNetwork, LayerSpec
from repro.nn.parameters import ParameterSet


def _weight_shape(spec: LayerSpec) -> typing.Tuple[int, ...]:
    if spec.kind == "conv":
        return (spec.out_channels, spec.in_channels, spec.kernel,
                spec.kernel)
    return (spec.out_channels, spec.in_channels)


def _fw_dims(spec: LayerSpec) -> typing.Tuple[int, int]:
    return spec.in_channels * spec.kernel ** 2, spec.out_channels


class FPGANetworkBackend:
    """The A3C network evaluated by the simulated FA3C hardware."""

    def __init__(self, network: A3CNetwork,
                 params: typing.Optional[ParameterSet] = None,
                 rng: typing.Optional[np.random.Generator] = None,
                 learning_rate: float = 7e-4, rho: float = 0.99,
                 eps: float = 0.1):
        self.network = network
        self.topology = network.topology()
        self.num_actions = network.num_actions
        self.fc4_width = network.fc4_width
        self.dram = DRAMModel(num_channels=2)
        self.inference_cu = ComputeUnit("infer", 64)
        self.training_cu = ComputeUnit("train", 64)
        self.rmsprop = RMSPropModule(learning_rate=learning_rate, rho=rho,
                                     eps=eps)
        params = params or network.init_params(rng)
        self._relu_after = {"Conv1", "Conv2", "FC3"}
        self._load_params_to_dram(params)
        # Per-layer forward caches (inputs + pre-activation outputs).
        self._inputs: typing.Dict[str, np.ndarray] = {}
        self._preact: typing.Dict[str, np.ndarray] = {}

    # -- DRAM parameter images ----------------------------------------------

    def _load_params_to_dram(self, params: ParameterSet) -> None:
        """Serialise theta into patch images; allocate RMSProp g images."""
        for spec in self.topology.layers:
            weight = params[f"{spec.name}.weight"]
            bias = params[f"{spec.name}.bias"]
            image = dram_image_from_fw(fw_layout(weight))
            self.dram.write(f"{spec.name}.theta", image, channel=1)
            self.dram.write(f"{spec.name}.bias", bias, channel=1)
            self.dram.allocate(f"{spec.name}.g", image.size)
            self.dram.allocate(f"{spec.name}.g.bias", bias.size)

    def parameters(self) -> ParameterSet:
        """Read theta back out of DRAM as a software ParameterSet."""
        params = ParameterSet()
        for spec in self.topology.layers:
            image = self.dram.region(f"{spec.name}.theta")
            rows, cols = _fw_dims(spec)
            fw_matrix = load_fw_from_dram(image, rows, cols)
            params[f"{spec.name}.weight"] = fw_layout_to_weight(
                fw_matrix, _weight_shape(spec))
            params[f"{spec.name}.bias"] = \
                self.dram.region(f"{spec.name}.bias").copy()
        return params

    def load_parameters(self, params: ParameterSet) -> None:
        """Overwrite DRAM theta from a software ParameterSet (sync)."""
        for spec in self.topology.layers:
            image = dram_image_from_fw(
                fw_layout(params[f"{spec.name}.weight"]))
            np.copyto(self.dram.region(f"{spec.name}.theta"), image)
            np.copyto(self.dram.region(f"{spec.name}.bias"),
                      params[f"{spec.name}.bias"])

    # -- FW / BW / GC through the CUs -----------------------------------------

    def forward(self, states: np.ndarray,
                training: bool = False) -> typing.Tuple[np.ndarray,
                                                        np.ndarray]:
        """FW through the inference (or training) CU; returns
        (logits, values)."""
        cu = self.training_cu if training else self.inference_cu
        channel = self.dram.channel(0)
        x = np.ascontiguousarray(states, dtype=np.float32)
        for spec in self.topology.layers:
            if spec.kind == "dense" and x.ndim > 2:
                x = x.reshape(x.shape[0], -1)
            self._inputs[spec.name] = x
            image = self.dram.region(f"{spec.name}.theta")
            bias = self.dram.region(f"{spec.name}.bias")
            y = cu.run_fw(spec, x, image, bias, channel=channel)
            self._preact[spec.name] = y
            if spec.name in self._relu_after:
                y = F.relu_forward(y)
            x = y
        logits = x[:, :self.num_actions]
        values = x[:, self.num_actions]
        return logits, values

    def backward_and_grads(self, dlogits: np.ndarray,
                           dvalues: np.ndarray
                           ) -> typing.Dict[str, typing.Tuple[np.ndarray,
                                                              np.ndarray]]:
        """GC then BW per layer, last to first (Section 4.3 schedule).

        Returns per-layer ``(gradient image, bias gradients)`` in the FW
        layout, ready for the RMSProp module.
        """
        n = dlogits.shape[0]
        dy = np.zeros((n, self.fc4_width), dtype=np.float32)
        dy[:, :self.num_actions] = dlogits
        dy[:, self.num_actions] = dvalues
        channel = self.dram.channel(1)
        grads: typing.Dict[str, typing.Tuple[np.ndarray, np.ndarray]] = {}
        layers = self.topology.layers
        for index in range(len(layers) - 1, -1, -1):
            spec = layers[index]
            if spec.name in self._relu_after:
                dy = F.relu_backward(dy, self._preact[spec.name])
            x = self._inputs[spec.name]
            grads[spec.name] = self.training_cu.run_gc(spec, x, dy,
                                                       channel=channel)
            if index > 0:
                image = self.dram.region(f"{spec.name}.theta")
                dy = self.training_cu.run_bw(spec, dy, image, x.shape,
                                             channel=channel)
                if spec.kind == "dense" and \
                        layers[index - 1].kind == "conv":
                    prev = layers[index - 1]
                    dy = dy.reshape(n, prev.out_channels, prev.out_height,
                                    prev.out_width)
        return grads

    def apply_gradients(self, grads: typing.Mapping[
            str, typing.Tuple[np.ndarray, np.ndarray]],
            learning_rate: typing.Optional[float] = None) -> None:
        """Run the RMSProp module's RUs over every layer's theta/g images.

        The gradient buffer is already in the FW layout (Section 4.4.4),
        so no TLU pass is needed here.
        """
        channel = self.dram.channel(1)
        for spec in self.topology.layers:
            grad_image, bias_grad = grads[spec.name]
            self.rmsprop.update_with_stats(
                self.dram.region(f"{spec.name}.theta"),
                self.dram.region(f"{spec.name}.g"),
                grad_image, channel=channel,
                learning_rate=learning_rate)
            self.rmsprop.update_arrays(
                self.dram.region(f"{spec.name}.bias"),
                self.dram.region(f"{spec.name}.g.bias"),
                bias_grad, learning_rate=learning_rate)

    def train_step(self, states: np.ndarray, actions: np.ndarray,
                   returns: np.ndarray, entropy_beta: float = 0.01,
                   learning_rate: typing.Optional[float] = None) -> float:
        """One full training task through the simulated hardware.

        Host-side softmax/objective (Section 4.1) feeds head gradients to
        the FPGA; returns the total loss.
        """
        from repro.nn.losses import a3c_loss_and_head_gradients
        logits, values = self.forward(states, training=True)
        loss = a3c_loss_and_head_gradients(logits, values, actions,
                                           returns,
                                           entropy_beta=entropy_beta)
        grads = self.backward_and_grads(loss.dlogits, loss.dvalues)
        self.apply_gradients(grads, learning_rate=learning_rate)
        return loss.total_loss
