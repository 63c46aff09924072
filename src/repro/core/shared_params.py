"""Shared-memory parameter storage for the multiprocessing actor backend.

The threaded trainer shares global θ through a lock-protected
:class:`~repro.core.parameter_server.ParameterServer`.  Worker *processes*
cannot share Python objects, so this module keeps θ and the shared RMSProp
statistics ``g`` as flat float32 vectors in anonymous shared memory
(:func:`multiprocessing.RawArray`) and layers the same server API on top:

* :class:`SharedParameterStore` — the raw shared state: two flat vectors,
  a writer lock, a global step counter, and a monotonically increasing
  *version* word used as a seqlock.  Writers hold the lock and bump the
  version to an odd value for the duration of the write; readers copy θ
  without taking the lock and retry if the version was odd or changed
  mid-copy.  Parameter sync (the hot read path, once per routine per
  agent) therefore never contends with other readers and never blocks a
  writer.
* :class:`SharedParameterServer` — a per-process facade with the
  :class:`~repro.core.parameter_server.ParameterServer` interface
  (``snapshot_into`` / ``apply_gradients`` / ``add_steps`` / ...) so
  :class:`~repro.core.agent.A3CAgent` runs unchanged inside a worker.

The store is created with the ``fork`` start method in mind: worker
processes inherit the shared mappings and the factory closures without
pickling.  NumPy views of the shared buffers are rebuilt per process (see
:meth:`SharedParameterStore.theta_flat`) so the store also survives being
sent through a pickling start method, should one ever be used.
"""

from __future__ import annotations

import time
import typing

import numpy as np

from repro.core.config import A3CConfig
from repro.core.parameter_server import clip_by_global_norm
from repro.nn.optim import SharedRMSProp
from repro.nn.parameters import ParameterSet
from repro.obs import runtime as _obs
from repro.perf.hotpath import hot_path

#: How long a seqlock reader waits on one odd version before it takes
#: that version's writer for dead (one apply keeps it odd for
#: milliseconds).
WRITER_STALL_BUDGET_S = 10.0
#: Retries a reader spins through on one version before it sleeps
#: between retries.
_FREE_SPINS = 64
#: A waiting reader's sleep per retry after its free spins.  The budget
#: counts these sleeps, so the read path never reads a clock.
_STALL_SLEEP_S = 1e-4


class SharedParameterStore:
    """Flat θ and RMSProp ``g`` in shared memory behind a seqlock version."""

    def __init__(self, ctx, template: ParameterSet):
        """``ctx`` is a :mod:`multiprocessing` context; ``template``
        provides the layer names/shapes and the initial θ values."""
        self._names: typing.List[str] = template.names()
        self._shapes = [template[name].shape for name in self._names]
        self._sizes = [int(template[name].size) for name in self._names]
        self._offsets = []
        offset = 0
        for size in self._sizes:
            self._offsets.append(offset)
            offset += size
        self.total_values = offset
        self._theta = ctx.RawArray("f", self.total_values)
        self._g = ctx.RawArray("f", self.total_values)
        # Seqlock word: even = stable, odd = a write is in progress.
        self._version = ctx.RawValue("Q", 0)
        self._step = ctx.RawValue("q", 0)
        self._updates = ctx.RawValue("q", 0)
        self.lock = ctx.Lock()
        # Store not shared yet: no reader can exist before __init__
        # returns, so the unlocked seed write races with nothing.
        # repro-lint: ok[seqlock]
        np.copyto(self.theta_flat(), template.flatten())

    # -- per-process views -------------------------------------------------

    def theta_flat(self) -> np.ndarray:
        """A float32 view of the shared θ vector (rebuild per process)."""
        return np.frombuffer(self._theta, dtype=np.float32)

    def g_flat(self) -> np.ndarray:
        """A float32 view of the shared RMSProp statistics vector."""
        return np.frombuffer(self._g, dtype=np.float32)

    def view_set(self, flat: np.ndarray) -> ParameterSet:
        """A :class:`ParameterSet` whose arrays alias ``flat`` in place."""
        arrays = {}
        for name, shape, offset, size in zip(self._names, self._shapes,
                                             self._offsets, self._sizes):
            arrays[name] = flat[offset:offset + size].reshape(shape)
        return ParameterSet(arrays)

    def empty_flat(self) -> np.ndarray:
        """A private scratch vector sized for one θ snapshot."""
        return np.empty(self.total_values, dtype=np.float32)

    # -- seqlock writer side (caller must hold ``self.lock``) --------------

    def begin_write(self) -> None:
        # odd: readers will retry
        # repro-lint: ok[seqlock] protocol primitive; caller holds lock
        self._version.value += 1

    def end_write(self) -> None:
        # even: snapshot is stable again
        # repro-lint: ok[seqlock] protocol primitive; caller holds lock
        self._version.value += 1

    # -- counters ----------------------------------------------------------

    @property
    def global_step(self) -> int:
        return self._step.value

    @property
    def updates_applied(self) -> int:
        return self._updates.value

    # -- whole-vector transfers --------------------------------------------

    def publish(self, params: ParameterSet,
                statistics: typing.Optional[ParameterSet] = None,
                global_step: typing.Optional[int] = None) -> None:
        """Seed the shared state from ordinary in-process sets."""
        with self.lock:
            self.begin_write()
            try:
                theta = self.view_set(self.theta_flat())
                theta.copy_from(params)
                if statistics is not None:
                    self.view_set(self.g_flat()).copy_from(statistics)
                if global_step is not None:
                    self._step.value = int(global_step)
            finally:
                self.end_write()

    @hot_path
    def snapshot_flat_into(self, dest: np.ndarray) -> None:
        """Seqlock read: copy shared θ into ``dest`` without locking.

        Retries until a copy completes with the version word even and
        unchanged, i.e. no writer overlapped the copy.  A reader that
        keeps finding one odd version spins :data:`_FREE_SPINS` times,
        then sleeps between retries, and raises ``RuntimeError`` naming
        the version once it has slept longer than
        :data:`WRITER_STALL_BUDGET_S` on it: that writer died mid-write.
        A version that moves on restarts the count, since its writer is
        alive.
        """
        theta = self.theta_flat()
        version = self._version
        last = -1
        spins = 0                     # retries on version ``last``
        while True:
            before = version.value
            if not before & 1:
                np.copyto(dest, theta)
                if version.value == before:
                    return
            if before != last:
                last, spins = before, 0
            spins += 1
            if spins > _FREE_SPINS:
                time.sleep(_STALL_SLEEP_S)
                if (spins - _FREE_SPINS) * _STALL_SLEEP_S > \
                        WRITER_STALL_BUDGET_S:
                    raise RuntimeError(
                        f"seqlock version {before} stayed odd for over "
                        f"{WRITER_STALL_BUDGET_S} s: its writer died "
                        "mid-write")

    def read_params_into(self, dest: ParameterSet) -> None:
        """Scatter a consistent θ snapshot into an ordinary set."""
        scratch = self.empty_flat()
        self.snapshot_flat_into(scratch)
        dest.load_flat(scratch)

    def read_statistics_into(self, dest: ParameterSet) -> None:
        """Copy the shared RMSProp statistics out (quiescent store only)."""
        with self.lock:
            dest.load_flat(self.g_flat().copy())


class SharedParameterServer:
    """Per-process parameter-server facade over a shared store.

    Mirrors the :class:`~repro.core.parameter_server.ParameterServer`
    interface used by agents.  Gradient application and step accounting
    serialise on the store's writer lock (observed under the same
    ``ps.lock_wait_seconds`` metric as the threaded server); parameter
    sync is a lock-free seqlock read.
    """

    def __init__(self, store: SharedParameterStore, config: A3CConfig):
        self.store = store
        self.config = config
        self.params = store.view_set(store.theta_flat())
        self._scratch = store.empty_flat()
        self.optimizer = SharedRMSProp(learning_rate=config.learning_rate,
                                       rho=config.rmsprop_rho,
                                       eps=config.rmsprop_eps)
        self.optimizer.adopt_statistics(store.view_set(store.g_flat()))
        self.updates_applied = 0          # this process's contribution

    @property
    def global_step(self) -> int:
        """Total inference steps processed across all workers."""
        return self.store._step.value

    def add_steps(self, count: int) -> int:
        """Atomically advance the global step counter; returns new value."""
        self._timed_acquire("steps")
        try:
            self.store._step.value += count
            return self.store._step.value
        finally:
            self.store.lock.release()

    def set_global_step(self, value: int) -> None:
        """Restore the step counter (checkpoint resume)."""
        with self.store.lock:
            self.store._step.value = int(value)

    @hot_path
    def _timed_acquire(self, op: str) -> None:
        """Take the writer lock, recording the wait when obs is on."""
        if not _obs.enabled():
            self.store.lock.acquire()
            return
        waited = time.perf_counter()
        self.store.lock.acquire()
        _obs.metrics().histogram("ps.lock_wait_seconds").observe(
            time.perf_counter() - waited, op=op)

    @hot_path
    def snapshot_into(self, local: ParameterSet) -> None:
        """Parameter sync: seqlock-read global θ into an agent's local θ.

        Lock-free on the reader side; the preallocated scratch vector is
        reused so the per-routine sync allocates nothing.
        """
        started = time.perf_counter() if _obs.enabled() else 0.0
        self.store.snapshot_flat_into(self._scratch)
        local.load_flat(self._scratch)
        if _obs.enabled():
            _obs.metrics().histogram("ps.sync_seconds").observe(
                time.perf_counter() - started)

    def snapshot(self) -> ParameterSet:
        """A fresh consistent copy of global θ."""
        out = ParameterSet({name: np.empty(shape, dtype=np.float32)
                            for name, shape in zip(self.store._names,
                                                   self.store._shapes)})
        self.store.snapshot_flat_into(self._scratch)
        out.load_flat(self._scratch)
        return out

    @hot_path
    def apply_gradients(self, grads: ParameterSet) -> float:
        """Apply one gradient batch with the annealed learning rate."""
        self._timed_acquire("apply")
        try:
            started = time.perf_counter() if _obs.enabled() else 0.0
            lr = self.config.learning_rate_at(self.store._step.value)
            if self.config.grad_clip_norm is not None:
                clip_by_global_norm(grads, self.config.grad_clip_norm)
            self.store.begin_write()
            try:
                self.optimizer.step(self.params, grads, learning_rate=lr)
            finally:
                self.store.end_write()
            self.store._updates.value += 1
            self.updates_applied += 1
            if _obs.enabled():
                metrics = _obs.metrics()
                metrics.counter("ps.updates").inc()
                metrics.histogram("ps.apply_seconds").observe(
                    time.perf_counter() - started)
            return lr
        finally:
            self.store.lock.release()

    @property
    def rmsprop_statistics(self) -> typing.Optional[ParameterSet]:
        """The shared second-moment estimates g (live shared-memory views)."""
        return self.optimizer.statistics
