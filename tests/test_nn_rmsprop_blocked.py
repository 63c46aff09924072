"""The blocked RMSProp kernel: exactness, allocations, checks and locking.

:meth:`repro.nn.optim.RMSProp.step` runs the update over
:data:`repro.nn.optim.BLOCK`-element blocks of each tensor through two
scratch buffers.  These tests hold it to the recurrence written as three
whole-tensor statements, byte for byte; check that an apply and a GC
allocate no parameter-sized temporaries; and check that the shared
scratch is only used under the parameter server's apply lock.
"""

import multiprocessing
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from repro.core import A3CConfig
from repro.core.parameter_server import ParameterServer
from repro.core.shared_params import SharedParameterStore
from repro.nn import ParameterSet, RMSProp
from repro.nn.network import A3CNetwork
from repro.nn.optim import BLOCK


def _whole_tensor_step(theta, g, grad, lr, rho, eps):
    """The recurrence as three whole-tensor statements: the reference
    the blocked kernel must equal bit for bit."""
    g *= rho
    g += (1.0 - rho) * grad * grad
    theta -= lr * grad / np.sqrt(g + eps)


def _random_set(shapes, rng):
    return ParameterSet({name: rng.standard_normal(shape)
                         .astype(np.float32)
                         for name, shape in shapes.items()})


def _table1():
    """The Table 1 network's θ and a gradient set of its shapes."""
    rng = np.random.default_rng(0)
    network = A3CNetwork(num_actions=4)
    params = network.init_params(rng)
    grads = _random_set({name: value.shape
                         for name, value in params.items()}, rng)
    return network, params, grads


def _assert_same_bytes(actual: ParameterSet, expected: ParameterSet):
    assert actual.names() == expected.names()
    for name in expected:
        assert actual[name].tobytes() == expected[name].tobytes(), name


class TestBlockedKernel:
    RHO = 0.99
    EPS = 0.1

    def _check(self, params, optimizer, rates, rng):
        """Take one step per rate; compare θ and g with the reference."""
        theta = params.copy()
        g = params.zeros_like()
        for rate in rates:
            grads = _random_set({name: value.shape
                                 for name, value in params.items()}, rng)
            optimizer.step(params, grads, learning_rate=rate)
            lr = optimizer.learning_rate if rate is None else rate
            for name in grads:
                _whole_tensor_step(theta[name], g[name], grads[name], lr,
                                   self.RHO, self.EPS)
        _assert_same_bytes(params, theta)
        _assert_same_bytes(optimizer.statistics, g)

    @pytest.mark.parametrize("size", [1, BLOCK - 1, BLOCK, BLOCK + 1,
                                      256 * 2592])
    def test_equals_whole_tensor_statements(self, size):
        rng = np.random.default_rng(size)
        params = _random_set({"w": (size,)}, rng)
        optimizer = RMSProp(learning_rate=7e-4, rho=self.RHO, eps=self.EPS)
        self._check(params, optimizer, [None] * 3, rng)

    def test_learning_rate_override(self):
        rng = np.random.default_rng(1)
        params = _random_set({"w": (3 * BLOCK + 17,), "b": (7,)}, rng)
        optimizer = RMSProp(learning_rate=7e-4, rho=self.RHO, eps=self.EPS)
        self._check(params, optimizer, [3e-3, None, 7e-4 * 0.25, 0.0], rng)

    def test_table1_network(self):
        _, params, _ = _table1()
        optimizer = RMSProp(rho=self.RHO, eps=self.EPS)
        self._check(params, optimizer, [None, 5e-4],
                    np.random.default_rng(2))

    def test_shared_store_views(self):
        """θ and g as views into the multiprocessing backend's flat
        shared vectors, where no tensor starts on a block boundary."""
        rng = np.random.default_rng(3)
        template = _random_set({"a": (5,), "FC3.weight": (256, 2592),
                                "b": (BLOCK + 3,)}, rng)
        store = SharedParameterStore(multiprocessing.get_context("fork"),
                                     template)
        params = store.view_set(store.theta_flat())
        optimizer = RMSProp(rho=self.RHO, eps=self.EPS)
        optimizer.adopt_statistics(store.view_set(store.g_flat()))
        self._check(params, optimizer, [None, 2e-3], rng)
        # The steps landed in shared memory, not in flattened copies.
        assert store.theta_flat().tobytes() == params.flatten().tobytes()
        assert store.g_flat().tobytes() == \
            optimizer.statistics.flatten().tobytes()


class TestChecks:
    def test_transposed_gradient_names_the_tensor(self):
        params = ParameterSet({"ok": np.ones(4, dtype=np.float32),
                               "FC3.weight": np.ones((3, 5),
                                                     dtype=np.float32)})
        grads = ParameterSet({"ok": np.ones(4, dtype=np.float32),
                              "FC3.weight": np.ones((5, 3),
                                                    dtype=np.float32)})
        with pytest.raises(ValueError, match=r"FC3\.weight.*\(5, 3\)"):
            RMSProp().step(params, grads)

    def test_transposed_statistics_name_the_tensor(self):
        params = ParameterSet({"w": np.ones((3, 5), dtype=np.float32)})
        optimizer = RMSProp()
        optimizer.adopt_statistics(
            ParameterSet({"w": np.zeros((5, 3), dtype=np.float32)}))
        with pytest.raises(ValueError, match=r"w: RMSProp statistics "
                                             r"\(5, 3\)"):
            optimizer.step(params, params.zeros_like())

    def test_non_contiguous_theta_raises(self):
        theta = np.ones((5, 3), dtype=np.float32).T
        params = ParameterSet({"w": theta})
        with pytest.raises(ValueError, match="w: θ is not C-contiguous"):
            RMSProp().step(params, ParameterSet(
                {"w": np.ones((3, 5), dtype=np.float32)}))

    def test_non_contiguous_gradient_is_read_in_order(self):
        rng = np.random.default_rng(4)
        params = _random_set({"w": (3, 5)}, rng)
        grad = rng.standard_normal((5, 3)).astype(np.float32).T
        expected = params.copy()
        RMSProp().step(expected, ParameterSet({"w": grad.copy()}))
        RMSProp().step(params, ParameterSet({"w": grad}))
        _assert_same_bytes(params, expected)


def _traced_peak(call) -> int:
    """Bytes the traced peak rises above the starting level in ``call``."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


class TestAllocations:
    def test_apply_allocates_no_array(self):
        """Whole-tensor statements would peak at ~7.6 MiB of FC3-sized
        temporaries in a Table 1 apply.  Blocked, only the few Python
        objects of the block views come and go (under 2 KiB), and a
        temporary the size of even the smallest weight (16 KiB) shows."""
        _, params, grads = _table1()
        server = ParameterServer(params, A3CConfig(num_agents=1, seed=0))
        server.apply_gradients(grads)              # warm-up
        assert _traced_peak(lambda: server.apply_gradients(grads)) \
            < 16 * 1024

    def test_fc3_gc_peaks_at_one_weight(self):
        """FC3's first gradient is stored as it is computed: one
        weight-sized block, where adding it into zeros takes two."""
        network, params, _ = _table1()
        fc3 = next(layer for layer in network.model.layers
                   if layer.name == "FC3")
        rng = np.random.default_rng(5)
        fc3.forward(rng.standard_normal((5, 2592)).astype(np.float32),
                    params)
        dy = rng.standard_normal((5, 256)).astype(np.float32)
        fc3.grad_params(dy, ParameterSet())        # warm-up
        weight = params["FC3.weight"].nbytes
        grads = ParameterSet()
        peak = _traced_peak(lambda: fc3.grad_params(dy, grads))
        assert weight <= peak < 1.5 * weight
        assert grads["FC3.weight"].flags.c_contiguous

    def test_second_gradient_adds(self):
        network, params, _ = _table1()
        fc3 = next(layer for layer in network.model.layers
                   if layer.name == "FC3")
        rng = np.random.default_rng(6)
        fc3.forward(rng.standard_normal((2, 2592)).astype(np.float32),
                    params)
        dy = rng.standard_normal((2, 256)).astype(np.float32)
        once = ParameterSet()
        fc3.grad_params(dy, once)
        twice = ParameterSet()
        fc3.grad_params(dy, twice)
        fc3.grad_params(dy, twice)
        for name in once:
            assert twice[name].tobytes() == (once[name] + once[name]) \
                .tobytes()


class TestApplyLock:
    THREADS = 8
    APPLIES = 50

    def test_threads_equal_sequential_applies(self):
        """Every thread applies the same gradient through one server with
        the switch interval cut to a microsecond; θ must equal the same
        number of sequential applies, which holds only if no two applies
        share the optimizer's scratch buffers at once."""
        rng = np.random.default_rng(7)
        shapes = {"w": (300, 700), "b": (BLOCK + 1,), "c": (7,)}
        start = _random_set(shapes, rng)
        grads = _random_set(shapes, rng)
        config = A3CConfig(num_agents=self.THREADS, seed=0,
                           grad_clip_norm=None)
        sequential = ParameterServer(start.copy(), config)
        for _ in range(self.THREADS * self.APPLIES):
            sequential.apply_gradients(grads)
        server = ParameterServer(start.copy(), config)
        errors = []

        def apply_many():
            try:
                for _ in range(self.APPLIES):
                    server.apply_gradients(grads)
            except Exception as error:   # surfaced by the assert below
                errors.append(error)

        threads = [threading.Thread(target=apply_many)
                   for _ in range(self.THREADS)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 60
            for thread in threads:
                thread.join(timeout=max(0.0, deadline - time.monotonic()))
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert server.updates_applied == self.THREADS * self.APPLIES
        _assert_same_bytes(server.params, sequential.params)
        _assert_same_bytes(server.rmsprop_statistics,
                           sequential.rmsprop_statistics)
