"""The compute unit: PEs + buffers + TLU executing FW / BW / GC.

A CU executes one inference or training task at a time across all layers
(paper Section 4.2.2).  This class is *functional*: parameters live as
Figure 7c DRAM images, are loaded through the FW or BW layout paths, and
the PE array computes on the loaded values in fp32 — so results are
bit-comparable with the software network, which the test suite asserts.
Cycle accounting follows :class:`~repro.fpga.timing.TimingModel`.
"""

from __future__ import annotations

import typing

import numpy as np

from repro.fpga.buffers import BufferControlUnit, OnChipBuffer
from repro.fpga.dram import DRAMChannel
from repro.fpga.layouts import (
    dram_image_from_fw,
    fw_layout,
    load_bw_from_dram,
    load_fw_from_dram,
)
from repro.fpga.pe import PEArray
from repro.nn import functional as F
from repro.nn.network import LayerSpec


def _fw_dims(spec: LayerSpec) -> typing.Tuple[int, int]:
    """(rows, cols) of the layer's FW layout matrix."""
    return spec.in_channels * spec.kernel ** 2, spec.out_channels


class ComputeUnit:
    """One CU with ``n_pe`` processing elements."""

    def __init__(self, name: str, n_pe: int = 64):
        self.name = name
        self.pes = PEArray(n_pe)
        self.bcu = BufferControlUnit()
        # On-chip buffers sized like the VU9P configuration (Table 4):
        # row counts are generous; capacity checks are in load_matrix.
        self.parameter_buffer = OnChipBuffer(f"{name}.param", rows=4096)
        self.feature_buffer = OnChipBuffer(f"{name}.feature", rows=4096)
        self.gradient_buffer = OnChipBuffer(f"{name}.grad", rows=4096)
        self.tasks_executed = 0

    # -- parameter load paths ----------------------------------------------

    def load_fw_parameters(self, image: np.ndarray, spec: LayerSpec,
                           channel: typing.Optional[DRAMChannel] = None
                           ) -> np.ndarray:
        """Load the FW-layout matrix from a DRAM image (no transform)."""
        rows, cols = _fw_dims(spec)
        if channel is not None:
            channel.load(image.size)
        return load_fw_from_dram(image, rows, cols)

    def load_bw_parameters(self, image: np.ndarray, spec: LayerSpec,
                           channel: typing.Optional[DRAMChannel] = None
                           ) -> np.ndarray:
        """Load the BW-layout matrix: patch-grid transpose + per-patch TLU
        transpose over the *same* DRAM image (single-copy invariant)."""
        rows, cols = _fw_dims(spec)
        if channel is not None:
            channel.load(image.size)
        return load_bw_from_dram(image, rows, cols)

    # -- computation stages --------------------------------------------------

    def run_fw(self, spec: LayerSpec, x: np.ndarray, image: np.ndarray,
               bias: np.ndarray,
               channel: typing.Optional[DRAMChannel] = None,
               apply_relu: bool = False) -> np.ndarray:
        """Forward propagation of one layer from its DRAM image.

        ``x`` is ``(N, I, H, W)`` for conv or ``(N, I)`` for dense.
        """
        fw_matrix = self.load_fw_parameters(image, spec, channel)
        if spec.kind == "conv":
            # fw_matrix is (I*K*K, O) == the flattened weight transposed;
            # the PEs accumulate each output over that reduction axis,
            # which is the software FW kernel on the reconstructed weight.
            weight = fw_matrix.T.reshape(spec.out_channels,
                                         spec.in_channels, spec.kernel,
                                         spec.kernel)
            y = F.conv_forward(np.ascontiguousarray(x, dtype=np.float32),
                               weight, bias, spec.stride)
        else:
            y = x.astype(np.float32) @ fw_matrix + bias
        self.pes.schedule_cycles(
            x.shape[0] * spec.num_outputs,
            spec.accumulation_frequency_fw,
            parallel_limit=None)
        self.tasks_executed += 1
        if apply_relu:
            y = F.relu_forward(y)
        return y

    def run_bw(self, spec: LayerSpec, dy: np.ndarray, image: np.ndarray,
               input_shape: typing.Sequence[int],
               channel: typing.Optional[DRAMChannel] = None) -> np.ndarray:
        """Backward propagation: input-feature gradients from the BW
        layout."""
        bw_matrix = self.load_bw_parameters(image, spec, channel)
        # bw_matrix is (O, I*K*K) == weight matrix flattened; reuse the
        # software kernels on the reconstructed weight.
        if spec.kind == "conv":
            weight = bw_matrix.reshape(spec.out_channels, spec.in_channels,
                                       spec.kernel, spec.kernel)
            dx = F.conv_backward_input(dy, weight, spec.stride,
                                       tuple(input_shape))
        else:
            dx = dy @ bw_matrix
        self.pes.schedule_cycles(
            spec.macs_bw(dy.shape[0]) // max(
                1, spec.accumulation_frequency_fw - 1),
            spec.accumulation_frequency_fw - 1,
            parallel_limit=None)
        self.tasks_executed += 1
        return dx

    def run_gc(self, spec: LayerSpec, x: np.ndarray, dy: np.ndarray,
               channel: typing.Optional[DRAMChannel] = None
               ) -> typing.Tuple[np.ndarray, np.ndarray]:
        """Gradient computation; returns (gradient DRAM image, bias grads).

        The gradient buffer keeps the FW layout (Section 4.4.4) so the
        RMSProp module needs no TLU.
        """
        if spec.kind == "conv":
            dw, db = F.conv_grad_params(
                np.ascontiguousarray(x, dtype=np.float32), dy,
                (spec.out_channels, spec.in_channels, spec.kernel,
                 spec.kernel), spec.stride)
        else:
            dw, db = F.dense_grad_params(x.astype(np.float32), dy)
        grad_image = dram_image_from_fw(fw_layout(dw))
        if channel is not None:
            channel.store(grad_image.size + db.size)
        self.pes.schedule_cycles(
            spec.num_weights + spec.out_channels,
            spec.accumulation_frequency_gc(dy.shape[0]),
            parallel_limit=None)
        self.tasks_executed += 1
        return grad_image, db
