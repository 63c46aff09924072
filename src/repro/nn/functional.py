"""Stateless numerical primitives: convolution, dense, and activations.

Each convolution stage is one matrix multiplication over the I*K*K
reduction axis — the same operational structure the FA3C processing
elements execute (multiply + accumulate, paper Section 4.2.1).  The
patch matrix, one row per output pixel, is built straight from the layer
input with one copy (:func:`extract_patches`), and
:func:`scatter_patches` is its adjoint:

* FW: ``patches @ W^T``;
* GC: ``patches^T @ dy_rows``, the GEMM reading ``patches`` through its
  transposed view, then transposed;
* BW: ``dy_rows @ W``, scattered back into the input shape,

where ``W`` is the weight flattened to ``(O, I*K*K)`` and ``dy_rows``
is the output gradient with one row per output pixel, ``(N*OH*OW, O)``.
Each product's operand order is part of the numerics: another order, such
as GC as ``dy_rows^T @ patches``, sums in another order, changes fp32
results and with them the final θ of every training run.

Array conventions:

* feature maps: ``(N, C, H, W)`` float32
* convolution weights: ``(O, I, K, K)`` float32, bias ``(O,)``
* dense weights: ``(out_features, in_features)``, bias ``(out_features,)``
"""

from __future__ import annotations

import typing

import numpy as np


def conv_output_size(size: int, kernel: int, stride: int) -> int:
    """Spatial output size of a VALID convolution."""
    if size < kernel:
        raise ValueError(f"input size {size} smaller than kernel {kernel}")
    return (size - kernel) // stride + 1


def extract_patches(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """The receptive field of every output pixel of ``(N, C, H, W)``.

    Returns ``(N*OH*OW, C*K*K)``: one row per output pixel, ordered by
    image, output row and output column, with columns in the order of a
    ``(O, C, K, K)`` weight's flattened rows.  FW multiplies it as it is
    and GC through its ``.T`` view, so it is the one patch copy of both.

    A kernel row, the K neighbouring values of one input row under a
    window, is contiguous both in a C-contiguous input and in a patch
    row, so the copy moves each kernel row as one K-value item rather
    than value by value, as FA3C's DRAM bursts move contiguous runs
    (Section 4.2).
    """
    n, c, h, w = x.shape
    oh = conv_output_size(h, kernel, stride)
    ow = conv_output_size(w, kernel, stride)
    # The item view reads x's buffer, which must be C-contiguous.
    x = np.ascontiguousarray(x)
    sn, sc, sh, sw = x.strides
    kernel_row = np.dtype((np.void, kernel * x.itemsize))
    rows = np.ndarray((n, oh, ow, c, kernel), dtype=kernel_row, buffer=x,
                      strides=(sn, sh * stride, sw * stride, sc, sh))
    # Into a new array: a reshape would return a view of x where the
    # items happen to be contiguous (one window, or one-value rows).
    out = np.empty((n * oh * ow, c * kernel), dtype=kernel_row)
    np.copyto(out.reshape(rows.shape), rows)
    return out.view(x.dtype)


def scatter_patches(rows: np.ndarray,
                    input_shape: typing.Tuple[int, int, int, int],
                    kernel: int, stride: int) -> np.ndarray:
    """Sum ``(N*OH*OW, C*K*K)`` patch rows back into ``(N, C, H, W)``.

    Overlapping windows accumulate — this is the adjoint of
    :func:`extract_patches` and the core of backward propagation
    through a convolution.
    """
    n, c, h, w = input_shape
    oh = conv_output_size(h, kernel, stride)
    ow = conv_output_size(w, kernel, stride)
    # One copy into (N, C, K, K, OH, OW) keeps each image's windows
    # cache-resident through the K*K strided adds below.
    windows = np.ascontiguousarray(
        rows.reshape(n, oh, ow, c, kernel, kernel).transpose(0, 3, 4, 5, 1, 2))
    out = np.zeros(input_shape, dtype=rows.dtype)
    for ki in range(kernel):
        row_end = ki + stride * oh
        for kj in range(kernel):
            col_end = kj + stride * ow
            out[:, :, ki:row_end:stride, kj:col_end:stride] += \
                windows[:, :, ki, kj]
    return out


def _dy_rows(dy: np.ndarray) -> np.ndarray:
    """``(N, O, OH, OW)`` output gradients as ``(N*OH*OW, O)`` rows."""
    n, o = dy.shape[:2]
    return dy.reshape(n, o, -1).transpose(0, 2, 1).reshape(-1, o)


def conv_forward(x: np.ndarray, weight: np.ndarray, bias: np.ndarray,
                 stride: int, policy=None, key: str = "") -> np.ndarray:
    """FW stage of a convolution layer; returns ``(N, O, OH, OW)``.

    ``policy`` is an optional :class:`~repro.nn.quant.PrecisionPolicy`
    coercing the *parameters* to their storage precision (activations are
    coerced by the layer, which owns the forward cache); at fp32 the
    policy is ``None`` and no extra call happens.
    """
    o, i, k, _ = weight.shape
    if x.shape[1] != i:
        raise ValueError(f"input channels {x.shape[1]} != weight {i}")
    if policy is not None:
        weight = policy(weight, f"{key}.weight")
        bias = policy(bias, f"{key}.bias")
    n, _, h, w = x.shape
    oh = conv_output_size(h, k, stride)
    ow = conv_output_size(w, k, stride)
    y = extract_patches(x, k, stride) @ weight.reshape(o, i * k * k).T
    y += bias
    return np.ascontiguousarray(y.reshape(n, oh, ow, o).transpose(0, 3, 1, 2))


def conv_backward_input(dy: np.ndarray, weight: np.ndarray, stride: int,
                        input_shape: typing.Tuple[int, int, int, int],
                        policy=None, key: str = "") -> np.ndarray:
    """BW stage: gradients of the input feature map.

    ``dy`` has shape ``(N, O, OH, OW)``.  ``policy`` re-coerces the
    weight to the same stored values the FW stage multiplied by
    (straight-through estimation: gradients flow in fp32 through the
    quantized parameters).
    """
    o, i, k, _ = weight.shape
    if policy is not None:
        weight = policy(weight, f"{key}.weight")
    rows = _dy_rows(dy) @ weight.reshape(o, i * k * k)
    return scatter_patches(rows, input_shape, k, stride)


def conv_grad_params(x: np.ndarray, dy: np.ndarray, weight_shape:
                     typing.Tuple[int, int, int, int], stride: int
                     ) -> typing.Tuple[np.ndarray, np.ndarray]:
    """GC stage: gradients of the convolution weights and bias.

    ``x`` is the layer input the FW stage read, or the one a training
    task installed from kept trunk maps
    (:meth:`repro.nn.network.Sequential.forward`): the training batch
    for the first convolution, and for a later one the activation
    recomputed from the kept output of the convolution below.  FA3C
    likewise reads the inference's feature maps back from DRAM for GC
    instead of running the convolutions again (Section 4.3).
    """
    o, _, k, _ = weight_shape
    dw = extract_patches(x, k, stride).T @ _dy_rows(dy)
    db = dy.reshape(dy.shape[0], o, -1).sum(axis=(0, 2))
    return dw.T.reshape(weight_shape), db


def dense_forward(x: np.ndarray, weight: np.ndarray, bias: np.ndarray,
                  policy=None, key: str = "") -> np.ndarray:
    """FW stage of a fully-connected layer; ``x`` is ``(N, in_features)``.

    ``policy`` optionally coerces the parameters to storage precision.
    """
    if policy is not None:
        weight = policy(weight, f"{key}.weight")
        bias = policy(bias, f"{key}.bias")
    return x @ weight.T + bias


def dense_backward_input(dy: np.ndarray, weight: np.ndarray,
                         policy=None, key: str = "") -> np.ndarray:
    """BW stage of a fully-connected layer (straight-through weights)."""
    if policy is not None:
        weight = policy(weight, f"{key}.weight")
    return dy @ weight


def dense_grad_params(x: np.ndarray, dy: np.ndarray
                      ) -> typing.Tuple[np.ndarray, np.ndarray]:
    """GC stage of a fully-connected layer.

    The reduction axis is the batch — the paper's point that the
    accumulation frequency of GC equals the batch size (Section 4.2.1).
    """
    return dy.T @ x, dy.sum(axis=0)


def relu_forward(x: np.ndarray) -> np.ndarray:
    """Elementwise max(x, 0)."""
    return np.maximum(x, 0.0)


def relu_backward(dy: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Pass gradients only where the forward input was positive."""
    return dy * (x > 0)
