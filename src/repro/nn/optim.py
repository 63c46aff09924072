"""Optimizers, including the shared RMSProp used by A3C.

A3C applies gradients from every agent to the *global* parameters using
RMSProp with shared (not per-agent) statistics ``g`` (paper Sections 2.2 and
4.2.3):

    g     <- rho * g + (1 - rho) * grad^2
    theta <- theta - eta * grad / sqrt(g + eps)

The FPGA RMSProp module (:mod:`repro.fpga.rmsprop_module`) implements the
same recurrence as a pipelined datapath; the two are cross-validated in the
test suite.  Its RUs stream θ and g through an on-chip buffer one chunk at
a time, and :meth:`RMSProp.step` does the same in software: it runs the
update over consecutive :data:`BLOCK`-element blocks of each tensor,
through two scratch buffers it allocates once, so an apply allocates
no array and each block's passes stay in one core's L2 cache.
"""

from __future__ import annotations

import typing

import numpy as np

from repro.nn.parameters import ParameterSet

#: Elements per block of :meth:`RMSProp.step`: 64 Ki fp32 values, 256 KiB
#: per operand, so a block of θ, g and the gradient plus the two scratch
#: buffers (1.25 MiB) fit in a 2 MiB per-core L2 across the update's
#: passes, where whole tensors overflow it on every pass.
BLOCK = 1 << 16


class Optimizer:
    """Base class: applies gradient sets to a parameter set in-place."""

    def __init__(self, learning_rate: float):
        self.learning_rate = learning_rate

    def step(self, params: ParameterSet, grads: ParameterSet,
             learning_rate: typing.Optional[float] = None) -> None:
        """Apply one update.  ``learning_rate`` overrides the stored rate
        (A3C anneals the rate linearly to zero over training)."""
        raise NotImplementedError


class SGD(Optimizer):
    """Plain stochastic gradient descent."""

    def step(self, params: ParameterSet, grads: ParameterSet,
             learning_rate: typing.Optional[float] = None) -> None:
        lr = self.learning_rate if learning_rate is None else learning_rate
        for name in grads:
            params[name] -= lr * grads[name]


class RMSProp(Optimizer):
    """RMSProp with the A3C hyper-parameters as defaults.

    ``rho`` (decay) and ``eps`` follow the original A3C publication; the
    statistics ``g`` live in a :class:`ParameterSet` so they can be shared,
    checkpointed, or mirrored into the FPGA simulator's DRAM image.
    """

    def __init__(self, learning_rate: float = 7e-4, rho: float = 0.99,
                 eps: float = 0.1):
        super().__init__(learning_rate)
        self.rho = rho
        self.eps = eps
        self._g: typing.Optional[ParameterSet] = None
        self._scratch = (np.empty(BLOCK, dtype=np.float32),
                         np.empty(BLOCK, dtype=np.float32))

    @property
    def statistics(self) -> typing.Optional[ParameterSet]:
        """The shared second-moment estimates (``None`` before first step)."""
        return self._g

    def attach(self, params: ParameterSet) -> None:
        """Pre-allocate statistics matching ``params`` (all zeros)."""
        self._g = params.zeros_like()

    def adopt_statistics(self, g: ParameterSet) -> None:
        """Use an existing statistics set in place of allocating one.

        The multiprocessing backend passes shared-memory views here so
        every worker updates the same ``g``, as A3C requires.
        """
        self._g = g

    def step(self, params: ParameterSet, grads: ParameterSet,
             learning_rate: typing.Optional[float] = None) -> None:
        """Apply one update in place, :data:`BLOCK` elements at a time.

        Each block runs the three statements of the recurrence with the
        operand order and Python-float scalars of the whole-tensor
        expressions, so θ and g are bit-identical to them.  A NumPy
        float64 scalar would promote a block to float64 under NEP 50 and
        change θ.  The two scratch buffers are the optimizer's own, so
        calls must not overlap: the parameter servers apply under a lock.
        """
        lr = self.learning_rate if learning_rate is None else learning_rate
        if self._g is None:
            self.attach(params)
        g = self._g
        rho = self.rho
        one_minus_rho = 1.0 - rho
        eps = self.eps
        terms, roots = self._scratch
        for name in grads:
            theta = params[name]
            stats = g[name]
            grad = grads[name]
            # A flat view would take a transposed operand of θ's size.
            if stats.shape != theta.shape or grad.shape != theta.shape:
                raise ValueError(f"{name}: RMSProp statistics "
                                 f"{stats.shape} and gradient {grad.shape} "
                                 f"must have θ's shape {theta.shape}")
            theta = _flat(theta, name, "θ")
            stats = _flat(stats, name, "RMSProp statistics")
            grad = grad.reshape(-1)
            for start in range(0, theta.size, BLOCK):
                stop = min(start + BLOCK, theta.size)
                theta_block = theta[start:stop]
                g_block = stats[start:stop]
                grad_block = grad[start:stop]
                term = terms[:stop - start]
                root = roots[:stop - start]
                # g <- rho * g + (1 - rho) * grad * grad
                g_block *= rho
                np.multiply(one_minus_rho, grad_block, out=term)
                term *= grad_block
                g_block += term
                # theta <- theta - lr * grad / sqrt(g + eps)
                np.multiply(lr, grad_block, out=term)
                np.add(g_block, eps, out=root)
                np.sqrt(root, out=root)
                term /= root
                theta_block -= term


def _flat(array: np.ndarray, name: str, what: str) -> np.ndarray:
    """The flat view of an array :meth:`RMSProp.step` updates in place.
    Only a C-contiguous array has one; a flattened copy would drop the
    update, so any other layout raises."""
    if not array.flags.c_contiguous:
        raise ValueError(f"{name}: {what} is not C-contiguous")
    return array.reshape(-1)


class SharedRMSProp(RMSProp):
    """Alias emphasising that statistics are shared across A3C agents.

    Functionally identical to :class:`RMSProp`; a single instance must be
    used for all agents so that ``g`` is shared, as in the original A3C.
    """


class Adam(Optimizer):
    """Adam optimizer (used by some A3C re-implementations; provided for
    the hyper-parameter ablation benches)."""

    def __init__(self, learning_rate: float = 1e-4, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        super().__init__(learning_rate)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m: typing.Optional[ParameterSet] = None
        self._v: typing.Optional[ParameterSet] = None
        self._t = 0

    def step(self, params: ParameterSet, grads: ParameterSet,
             learning_rate: typing.Optional[float] = None) -> None:
        lr = self.learning_rate if learning_rate is None else learning_rate
        if self._m is None:
            self._m = params.zeros_like()
            self._v = params.zeros_like()
        self._t += 1
        bias1 = 1.0 - self.beta1 ** self._t
        bias2 = 1.0 - self.beta2 ** self._t
        for name in grads:
            grad = grads[name]
            m = self._m[name]
            v = self._v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            params[name] -= lr * m_hat / (np.sqrt(v_hat) + self.eps)
