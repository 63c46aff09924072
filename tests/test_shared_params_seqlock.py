"""Regression tests for the seqlock retry path in SharedParameterStore.

``snapshot_flat_into`` must never return a torn snapshot: it retries when
the version word is odd (a write is in progress) or changed mid-copy (a
write overlapped the copy).  The retry branches are impossible to hit
deterministically with real writers, so these tests drive them with a
scripted version word whose reads can mutate θ at exact protocol points.
"""

import multiprocessing
import threading
import time

import numpy as np
import pytest

from repro.core import shared_params
from repro.core.shared_params import SharedParameterStore
from repro.nn.network import MLPPolicyNetwork

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="shared store requires the fork start method")


def template_params(seed=0):
    net = MLPPolicyNetwork(num_actions=3, input_shape=(5, 5), hidden=16)
    return net.init_params(np.random.default_rng(seed))


def make_store(params=None):
    ctx = multiprocessing.get_context("fork")
    return SharedParameterStore(ctx, params or template_params())


class ScriptedVersion:
    """Stands in for the shared version word.

    Each read of ``.value`` pops ``(value, side_effect)`` from the
    script; ``side_effect`` (if any) runs before the value is returned,
    which lets a test mutate θ "during" the reader's copy window.
    """

    def __init__(self, script):
        self._script = list(script)
        self.reads = 0

    @property
    def value(self):
        if not self._script:
            raise AssertionError("seqlock read past the scripted sequence")
        self.reads += 1
        value, side_effect = self._script.pop(0)
        if side_effect is not None:
            side_effect()
        return value


class TestTornReadRetry:
    def test_version_change_mid_copy_forces_retry(self):
        """A write overlapping the copy must discard the torn snapshot."""
        store = make_store()
        theta = store.theta_flat()
        stale = np.full(store.total_values, 1.0, dtype=np.float32)
        fresh = np.full(store.total_values, 2.0, dtype=np.float32)
        np.copyto(theta, stale)

        def overlap_write():
            # Runs at the post-copy version check: the reader has already
            # copied the stale vector, so this models a writer landing
            # inside the copy window.
            np.copyto(theta, fresh)

        store._version = ScriptedVersion([
            (2, None),            # read 1: before -> even, copy proceeds
            (3, overlap_write),   # read 2: changed mid-copy -> retry
            (4, None),            # read 3: stable again, copy proceeds
            (4, None),            # read 4: unchanged -> accept
        ])
        dest = np.empty(store.total_values, dtype=np.float32)
        store.snapshot_flat_into(dest)
        # A broken retry path would return the stale copy here.
        np.testing.assert_array_equal(dest, fresh)
        assert store._version.reads == 4

    def test_odd_version_defers_copy(self):
        """Readers must not copy at all while the version word is odd."""
        store = make_store()
        theta = store.theta_flat()
        final = np.full(store.total_values, 7.0, dtype=np.float32)

        def finish_write():
            np.copyto(theta, final)

        # Mid-write garbage a premature copy would observe.
        np.copyto(theta, np.full(store.total_values, np.nan,
                                 dtype=np.float32))
        store._version = ScriptedVersion(
            [(5, None)] * 3              # write in progress: spin
            + [(6, finish_write),        # write retires, θ now stable
               (6, None)])               # unchanged -> accept
        dest = np.empty(store.total_values, dtype=np.float32)
        store.snapshot_flat_into(dest)
        np.testing.assert_array_equal(dest, final)

    def test_long_odd_streak_yields_and_terminates(self):
        """The spin loop must survive >64 retries (the sleep(0) branch)."""
        store = make_store()
        theta = store.theta_flat()
        final = np.full(store.total_values, 3.0, dtype=np.float32)
        np.copyto(theta, final)
        store._version = ScriptedVersion(
            [(1, None)] * 130 + [(2, None), (2, None)])
        dest = np.empty(store.total_values, dtype=np.float32)
        store.snapshot_flat_into(dest)
        np.testing.assert_array_equal(dest, final)
        assert store._version.reads == 132


class TestConcurrentConsistency:
    def test_snapshots_are_never_torn_under_a_live_writer(self):
        """Property check: every snapshot is one published vector.

        A writer publishes constant-valued vectors while a reader
        snapshots concurrently; a torn read would mix two constants.
        """
        store = make_store()
        n = store.total_values
        stop = threading.Event()
        errors = []

        def writer():
            params = store.view_set(store.empty_flat())
            k = 0.0
            while not stop.is_set():
                k += 1.0
                for name in params:
                    params[name][...] = k
                store.publish(params)

        def reader():
            dest = np.empty(n, dtype=np.float32)
            try:
                for _ in range(400):
                    store.snapshot_flat_into(dest)
                    if dest.min() != dest.max():
                        errors.append((float(dest.min()),
                                       float(dest.max())))
                        return
            finally:
                stop.set()

        np.copyto(store.theta_flat(),
                  np.zeros(n, dtype=np.float32))
        threads = [threading.Thread(target=writer),
                   threading.Thread(target=reader)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors, f"torn snapshot observed: {errors[0]}"


class TestDeadWriter:
    """A writer that dies mid-write leaves the version odd; a reader
    must then fail within the stall budget instead of spinning forever,
    and must not fail while a live writer keeps moving the version."""

    def test_wedged_store_raises_naming_the_version(self, monkeypatch):
        monkeypatch.setattr(shared_params, "WRITER_STALL_BUDGET_S", 0.2)
        store = make_store()
        store.begin_write()                  # and no end_write()
        errors = []

        def read():
            try:
                store.read_params_into(template_params())
            except RuntimeError as error:
                errors.append(error)

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        reader.join(timeout=10)
        assert not reader.is_alive(), "reader still spins on a dead writer"
        assert len(errors) == 1
        assert "version 1" in str(errors[0])

    def test_read_racing_a_live_writer_is_consistent(self, monkeypatch):
        """Bursts of back-to-back writes keep the version odd for longer
        than the budget, but each version only for a few milliseconds:
        the reader waits through them and gets a whole θ."""
        monkeypatch.setattr(shared_params, "WRITER_STALL_BUDGET_S", 0.02)
        store = make_store()
        n = store.total_values
        theta = store.theta_flat()
        stop = threading.Event()
        torn, seen, errors = [], set(), []

        def writer():
            k = 0.0
            while not stop.is_set():
                for _ in range(20):           # 60 ms of writes
                    k += 1.0
                    with store.lock:
                        store.begin_write()
                        theta[:n // 2] = k
                        time.sleep(0.003)
                        theta[n // 2:] = k
                        store.end_write()
                time.sleep(0.005)

        def reader():
            dest = np.empty(n, dtype=np.float32)
            try:
                while len(seen) < 3:
                    store.snapshot_flat_into(dest)
                    low, high = float(dest.min()), float(dest.max())
                    if low != high:
                        torn.append((low, high))
                    seen.add(low)
            except RuntimeError as error:
                errors.append(error)
            finally:
                stop.set()

        threads = [threading.Thread(target=writer, daemon=True),
                   threading.Thread(target=reader, daemon=True)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert not torn, torn
        assert len(seen) == 3
