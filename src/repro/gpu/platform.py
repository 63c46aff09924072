"""The four software baseline platforms (paper Section 5.1).

Each platform's discrete-event sim exposes ``agent_chain``: one agent's
A3C routines compiled into a callback chain (see
:class:`repro.platforms.chain.AgentChain`) that
:class:`repro.platforms.ThroughputSetup` starts once per agent.

* :class:`A3CcuDNNPlatform` — direct cuDNN/cuBLAS invocation; one shared
  GPU serialises all agents' tasks.
* :class:`A3CTFGPUPlatform` — same structure plus TensorFlow's per-run
  overhead and kernel slowdown.
* :class:`GA3CTFPlatform` — the GA3C architecture: agents submit states to
  a predictor queue served in batches; training batches run from a trainer
  queue and do *not* block the submitting agent.
* :class:`A3CTFCPUPlatform` — TensorFlow on the host CPUs.
"""

from __future__ import annotations

import heapq
import typing

from repro.gpu.calibration import GPUCalibration
from repro.gpu.cudnn import CuDNNModel
from repro.gpu.kernel import KernelCall, KernelCostModel
from repro.gpu.specs import P100, XEON_E5_2630_PAIR, GPUSpec, HostSpec
from repro.nn.network import NetworkTopology
from repro.obs import runtime as _obs
from repro.obs.prof import buckets as _prof
from repro.perf.hotpath import hot_path
from repro.platforms.chain import AgentChain, ChainSim
from repro.sim import Engine, Resource, Store


def _record_task_profile(platform_name: str, task: str,
                         buckets: typing.Mapping[str, float]) -> None:
    """Record one task's cause-bucket split as integer nanoseconds.

    The total counter is incremented by the sum of the recorded bucket
    integers, so buckets sum to the total exactly (the GPU analogue of
    the FPGA cycle invariant)."""
    metrics = _obs.metrics()
    counter = metrics.counter(_prof.GPU_TIME_METRIC)
    total = 0
    for bucket, seconds in buckets.items():
        ns = int(round(seconds * 1e9))
        if ns <= 0:
            continue
        counter.inc(ns, platform=platform_name, task=task, bucket=bucket)
        total += ns
    metrics.counter(_prof.GPU_TIME_TOTAL_METRIC).inc(
        total, platform=platform_name, task=task)


class _GPUPlatformBase:
    """Shared machinery: kernel model + analytic task latencies."""

    name = "gpu-base"

    def __init__(self, topology: NetworkTopology,
                 gpu: GPUSpec = P100,
                 calibration: typing.Optional[GPUCalibration] = None):
        self.topology = topology
        self.cal = calibration or GPUCalibration()
        self.kernels = KernelCostModel(gpu, self.cal)
        self.model = CuDNNModel(topology)
        # (kind, task, batch) -> seconds / buckets.  Latencies are pure
        # functions of (topology, calibration, batch), all fixed at
        # construction (GPUCalibration is frozen), so memoizing them is
        # value-preserving; the golden digests in tests/test_sim_golden.py
        # run every case cold and warm to keep it so.
        self._task_cache: typing.Dict[tuple, typing.Any] = {}

    # Per-platform multipliers (TensorFlow adds overheads).
    task_overhead = 0.0
    kernel_slowdown = 1.0

    def _kernel_time(self, calls: typing.Sequence[KernelCall]) -> float:
        return self.kernels.sequence_seconds(calls) * self.kernel_slowdown

    def inference_seconds(self, batch: int = 1) -> float:
        """End-to-end inference latency: DMA in, kernels, DMA out."""
        return (self.task_overhead
                + self.kernels.pcie_seconds(self.model.input_bytes(batch))
                + self._kernel_time(self.model.inference_kernels(batch))
                + self.kernels.pcie_seconds(self.model.output_bytes(batch)))

    def training_seconds(self, batch: int) -> float:
        """Training-task latency (head gradients arrive over PCIe)."""
        last = self.topology.layers[-1]
        grad_bytes = batch * last.num_outputs * 4
        return (self.task_overhead
                + self.kernels.pcie_seconds(grad_bytes)
                + self._kernel_time(self.model.training_kernels(batch)))

    def sync_seconds(self) -> float:
        """Local-model refresh from the global model (device copy)."""
        return self.task_overhead \
            + self._kernel_time(self.model.sync_kernels())

    def _kernel_buckets(self, calls: typing.Sequence[KernelCall]
                        ) -> typing.Dict[str, float]:
        """Body-vs-launch seconds, scaled like :meth:`_kernel_time`."""
        return {bucket: seconds * self.kernel_slowdown
                for bucket, seconds in
                self.kernels.sequence_buckets(calls).items()}

    def inference_buckets(self, batch: int = 1
                          ) -> typing.Dict[str, float]:
        """Cause-bucket split mirroring :meth:`inference_seconds`."""
        buckets = self._kernel_buckets(self.model.inference_kernels(batch))
        buckets[_prof.GPU_MEMCPY] = (
            self.kernels.pcie_seconds(self.model.input_bytes(batch))
            + self.kernels.pcie_seconds(self.model.output_bytes(batch)))
        if self.task_overhead:
            buckets[_prof.GPU_FRAMEWORK] = self.task_overhead
        return buckets

    def training_buckets(self, batch: int) -> typing.Dict[str, float]:
        """Cause-bucket split mirroring :meth:`training_seconds`."""
        buckets = self._kernel_buckets(self.model.training_kernels(batch))
        last = self.topology.layers[-1]
        buckets[_prof.GPU_MEMCPY] = self.kernels.pcie_seconds(
            batch * last.num_outputs * 4)
        if self.task_overhead:
            buckets[_prof.GPU_FRAMEWORK] = self.task_overhead
        return buckets

    def sync_buckets(self) -> typing.Dict[str, float]:
        """Cause-bucket split mirroring :meth:`sync_seconds`."""
        buckets = self._kernel_buckets(self.model.sync_kernels())
        if self.task_overhead:
            buckets[_prof.GPU_FRAMEWORK] = self.task_overhead
        return buckets

    def _build_seconds(self, task: str, batch: int) -> float:
        if task == "inference":
            return self.inference_seconds(batch)
        if task == "train":
            return self.training_seconds(batch)
        return self.sync_seconds()

    def _build_buckets(self, task: str, batch: int
                       ) -> typing.Dict[str, float]:
        if task == "inference":
            return self.inference_buckets(batch)
        if task == "train":
            return self.training_buckets(batch)
        return self.sync_buckets()

    def _task_kernels(self, task: str, batch: int
                      ) -> typing.List[KernelCall]:
        if task == "inference":
            return self.model.inference_kernels(batch)
        if task == "train":
            return self.model.training_kernels(batch)
        return self.model.sync_kernels()

    def _task_obs_rows(self, task: str, batch: int) -> tuple:
        """The per-kernel observations one task emits, precomputed.

        :meth:`KernelCostModel.kernel_seconds` records a launch count and
        two histogram observations per kernel; when the latency itself is
        memoized those recordings must still happen once per simulated
        task, so the rows are cached alongside the seconds and replayed.
        """
        kernels = self.kernels
        return tuple((call.name, kernels.utilisation(call.outputs),
                      kernels.compute_seconds(call))
                     for call in self._task_kernels(task, batch))

    @staticmethod
    def _replay_kernel_obs(rows: tuple) -> None:
        metrics = _obs.metrics()
        launches = metrics.counter("gpu.kernel.launches")
        occupancy = metrics.histogram("gpu.kernel.occupancy")
        seconds = metrics.histogram("gpu.kernel.seconds")
        for name, occ, body in rows:
            launches.inc(kernel=name)
            occupancy.observe(occ)
            seconds.observe(body, kernel=name)

    def task_entry(self, task: str, batch: int = 0) -> tuple:
        """Memoized ``(seconds, kernel observation rows)`` of one task.

        Dispatches through the instance methods, so platform subclasses
        that override a latency model are still honoured.  The entry is
        built with collection suspended (the build's own per-kernel
        recordings would happen once per entry, not once per task) and
        records nothing itself."""
        key = ("seconds", task, batch)
        entry = self._task_cache.get(key)
        if entry is None:
            observing = _obs.enabled()
            if observing:
                _obs.disable()
            try:
                built = self._build_seconds(task, batch)
            finally:
                if observing:
                    _obs.enable()
            entry = (built, self._task_obs_rows(task, batch))
            self._task_cache[key] = entry
        return entry

    def task_seconds(self, task: str, batch: int = 0) -> float:
        """Memoized ``{inference,train,sync}_seconds`` dispatcher (see
        :meth:`task_entry`) that replays the cached observation rows, so
        every simulated task records its kernels."""
        seconds, rows = self.task_entry(task, batch)
        if rows and _obs.enabled():
            self._replay_kernel_obs(rows)
        return seconds

    def task_buckets(self, task: str, batch: int = 0
                     ) -> typing.Dict[str, float]:
        """Memoized cause-bucket dispatcher; returns a fresh copy
        (callers annotate the dict in place).  Bucket builders use
        :meth:`KernelCostModel.sequence_buckets`, which records nothing,
        so no replay is needed here."""
        key = ("buckets", task, batch)
        value = self._task_cache.get(key)
        if value is None:
            value = self._build_buckets(task, batch)
            self._task_cache[key] = value
        return dict(value)

    def launch_fraction(self, batch: int = 1) -> float:
        """Launch-overhead share of an A3C routine's kernel time
        (the Section 3.4 measurement)."""
        calls = []
        for _ in range(6):
            calls.extend(self.model.inference_kernels(1))
        calls.extend(self.model.training_kernels(batch))
        return self.kernels.launch_fraction(calls)

    def build_sim(self, engine: Engine) -> "GPUSim":
        return GPUSim(self, engine)


class A3CcuDNNPlatform(_GPUPlatformBase):
    """Directly-invoked cuDNN/cuBLAS A3C (the best GPU baseline)."""

    name = "A3C-cuDNN"


class A3CTFGPUPlatform(_GPUPlatformBase):
    """TensorFlow A3C running its kernels on the GPU."""

    name = "A3C-TF-GPU"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.task_overhead = self.cal.tf_run_overhead
        self.kernel_slowdown = self.cal.tf_kernel_slowdown


class A3CTFCPUPlatform(_GPUPlatformBase):
    """TensorFlow A3C computing on the host CPUs only."""

    name = "A3C-TF-CPU"

    def __init__(self, topology: NetworkTopology,
                 host: HostSpec = XEON_E5_2630_PAIR,
                 calibration: typing.Optional[GPUCalibration] = None):
        super().__init__(topology, calibration=calibration)
        self.host = host
        self.task_overhead = self.cal.tf_run_overhead

    #: Per-op executor dispatch (much cheaper than a GPU launch).
    _DISPATCH_SECONDS = 4e-6

    def _kernel_time(self, calls: typing.Sequence[KernelCall]) -> float:
        throughput = self.host.peak_flops * self.cal.cpu_efficiency
        compute = sum(call.flops for call in calls) / throughput
        dispatch = len(calls) * self._DISPATCH_SECONDS
        return compute + dispatch

    def _task_obs_rows(self, task: str, batch: int) -> tuple:
        # Host execution never goes through kernel_seconds, so there are
        # no per-kernel recordings to replay.
        return ()

    def _kernel_buckets(self, calls: typing.Sequence[KernelCall]
                        ) -> typing.Dict[str, float]:
        throughput = self.host.peak_flops * self.cal.cpu_efficiency
        compute = sum(call.flops for call in calls) / throughput
        # Executor dispatch is framework time, not kernel launch.
        return {_prof.GPU_KERNEL: compute,
                _prof.GPU_FRAMEWORK: len(calls) * self._DISPATCH_SECONDS}

    def inference_seconds(self, batch: int = 1) -> float:
        # No PCIe: observations stay in host memory.
        return self.task_overhead \
            + self._kernel_time(self.model.inference_kernels(batch))

    def training_seconds(self, batch: int) -> float:
        return self.task_overhead \
            + self._kernel_time(self.model.training_kernels(batch))

    def sync_seconds(self) -> float:
        return self.task_overhead / 2 \
            + self._kernel_time(self.model.sync_kernels())

    def _host_buckets(self, calls: typing.Sequence[KernelCall],
                      overhead: float) -> typing.Dict[str, float]:
        buckets = self._kernel_buckets(calls)
        buckets[_prof.GPU_FRAMEWORK] = \
            buckets.get(_prof.GPU_FRAMEWORK, 0.0) + overhead
        return buckets

    def inference_buckets(self, batch: int = 1
                          ) -> typing.Dict[str, float]:
        return self._host_buckets(self.model.inference_kernels(batch),
                                  self.task_overhead)

    def training_buckets(self, batch: int) -> typing.Dict[str, float]:
        return self._host_buckets(self.model.training_kernels(batch),
                                  self.task_overhead)

    def sync_buckets(self) -> typing.Dict[str, float]:
        return self._host_buckets(self.model.sync_kernels(),
                                  self.task_overhead / 2)

    def build_sim(self, engine: Engine) -> "GPUSim":
        return GPUSim(self, engine,
                      executors=self.cal.cpu_executors)


class _GPUAgentChain(AgentChain):
    """Agent routine against :class:`GPUSim`'s shared device.

    A device task takes the device, holds it for the task's seconds
    (compiled in: a pure function of the frozen platform) and releases
    it.  An immediate grant continues in place, so it costs one heap
    entry, the hold timer.  With telemetry on, a ``("profile", ...)``
    op records the task's cause buckets and kernels each time the task
    runs."""

    __slots__ = ()

    def _task(self, kind: str, batch: int, tracked: bool) -> list:
        sim = self.sim
        platform = sim.platform
        seconds, rows = platform.task_entry(kind, batch)
        ops: list = [("start",)] if tracked else []
        if _obs.enabled():
            ops.append(("profile", kind, platform.task_buckets(kind, batch),
                        rows))
        ops += [("acq", sim.device), ("sleep", seconds),
                ("rel", sim.device)]
        if tracked:
            ops.append(("lat",))
        return ops

    def _op(self, op: tuple) -> bool:
        # ("profile", kind, buckets, rows): only compiled in while
        # telemetry is on.
        platform = self.sim.platform
        _record_task_profile(platform.name, op[1], op[2])
        if op[3]:
            platform._replay_kernel_obs(op[3])
        return True


class _GA3CAgentChain(AgentChain):
    """Agent routine against :class:`GA3CSim`'s request queues.

    GA3C has no local model, so a sync is a zero-length sleep.
    ``("predict",)`` posts the chain's waker on the predictor queue and
    waits for the batch that serves it; ``("train", batch)`` posts a
    rollout length on the trainer queue and continues (training does
    not block the agent), so a zero-length sleep follows it."""

    __slots__ = ()

    def _task(self, kind: str, batch: int, tracked: bool) -> list:
        if kind == "sync":
            return [("sleep", 0.0)]
        if kind == "inference":
            if tracked:
                return [("start",), ("predict",), ("lat",)]
            return [("predict",)]
        return [("train", batch), ("sleep", 0.0)]

    def _op(self, op: tuple) -> bool:
        if op[0] == "predict":
            self.sim.predict_queue.put(self._wake)
            return False
        self.sim.train_queue.put(op[1])                 # ("train", batch)
        return True


class _DeviceServer:
    """Base of the GA3C servers: callback chains that block on a request
    queue, form a batch, and hold the device for it."""

    __slots__ = ("sim", "engine", "_state", "_dur")

    def __init__(self, sim: "GA3CSim"):
        engine = sim.engine
        self.sim = sim
        self.engine = engine
        self._state = 0
        self._dur = 0.0
        heapq.heappush(engine._queue,
                       (engine._now, engine._sequence, self._advance))
        engine._sequence += 1

    def _wake(self) -> None:
        """Device waiter: continue one heap hop after the grant."""
        engine = self.engine
        heapq.heappush(engine._queue,
                       (engine._now, engine._sequence, self._advance))
        engine._sequence += 1

    def _advance(self, event=None) -> None:
        raise NotImplementedError


class _GA3CPredictorChain(_DeviceServer):
    """Callback-compiled GA3C predictor server.

    Loop: wait for a request (an agent's waker) on the predict queue,
    drain up to ``max_prediction_batch - 1`` more, serialise the
    per-request Python handling (``ga3c_request_overhead`` each), run
    one batched inference on the device, then wake every agent.
    """

    __slots__ = ("_batch",)

    @hot_path
    def _advance(self, event=None) -> None:
        sim = self.sim
        platform = sim.platform
        engine = self.engine
        state = self._state
        if state == 1:
            # The blocking get for the batch's first request has fired.
            batch = [event._value] + sim.predict_queue.get_batch(
                platform.max_prediction_batch - 1)
            self._batch = batch
            if _obs.enabled():
                buckets = platform.task_buckets("inference", len(batch))
                buckets[_prof.GPU_FRAMEWORK] = (
                    buckets.get(_prof.GPU_FRAMEWORK, 0.0)
                    + len(batch) * platform.cal.ga3c_request_overhead)
                _record_task_profile(platform.name, "predict", buckets)
            self._state = 2
            delay = len(batch) * platform.cal.ga3c_request_overhead
            heapq.heappush(engine._queue,
                           (engine._now + delay, engine._sequence,
                            self._advance))
            engine._sequence += 1
            return
        if state == 2:
            self._dur = platform.task_seconds("inference", len(self._batch))
            self._state = 3
            if not sim.device.take(self._wake):
                return
            state = 3
        if state == 3:
            # The device is held: run the batch.
            self._state = 4
            heapq.heappush(engine._queue,
                           (engine._now + self._dur, engine._sequence,
                            self._advance))
            engine._sequence += 1
            return
        if state == 4:
            sim.device.release()
            for reply in self._batch:
                reply()
        # state 0 (chain start) falls through here too: block on the
        # next request.
        self._state = 1
        sim.predict_queue.get().callbacks.append(self._advance)


class _GA3CTrainerChain(_DeviceServer):
    """Callback-compiled GA3C trainer server.

    Loop: wait for a rollout on the train queue, drain up to
    ``training_batch_rollouts - 1`` more, and run one training task over
    their summed length on the device.  Agents never wait on it."""

    __slots__ = ()

    @hot_path
    def _advance(self, event=None) -> None:
        sim = self.sim
        platform = sim.platform
        engine = self.engine
        state = self._state
        if state == 1:
            extra = sim.train_queue.get_batch(
                platform.training_batch_rollouts - 1)
            total = int(event._value) + sum(int(b) for b in extra)
            if _obs.enabled():
                _record_task_profile(platform.name, "train",
                                     platform.task_buckets("train", total))
            self._dur = platform.task_seconds("train", total)
            self._state = 2
            if not sim.device.take(self._wake):
                return
            state = 2
        if state == 2:
            # The device is held: run the training batch.
            self._state = 3
            heapq.heappush(engine._queue,
                           (engine._now + self._dur, engine._sequence,
                            self._advance))
            engine._sequence += 1
            return
        if state == 3:
            sim.device.release()
        self._state = 1
        sim.train_queue.get().callbacks.append(self._advance)


class GPUSim(ChainSim):
    """Discrete-event instance: one shared device serialises tasks."""

    chain_class = _GPUAgentChain

    def __init__(self, platform: _GPUPlatformBase, engine: Engine,
                 executors: int = 1):
        self.platform = platform
        self.engine = engine
        self.device = Resource(engine, capacity=executors, name="device")

    def utilisation(self) -> float:
        """Device occupancy (drives the power model)."""
        return self.device.utilisation()


class GA3CTFPlatform(_GPUPlatformBase):
    """The GA3C architecture on TensorFlow.

    Agents post prediction requests into a queue; a predictor thread
    drains the queue into one batched inference on the single global
    model.  Rollouts go to a trainer queue; training batches also run on
    the device but do not block agents (Section 6).
    """

    name = "GA3C-TF"
    #: GA3C has no per-agent local model: no sync, and bootstrapping is
    #: folded into the server's batched predictions.
    needs_sync = False
    needs_bootstrap = False

    def __init__(self, *args, max_prediction_batch: int = 64,
                 training_batch_rollouts: int = 4, **kwargs):
        for name, value in (("max_prediction_batch", max_prediction_batch),
                            ("training_batch_rollouts",
                             training_batch_rollouts)):
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value!r}")
        super().__init__(*args, **kwargs)
        self.task_overhead = self.cal.tf_run_overhead
        self.kernel_slowdown = self.cal.tf_kernel_slowdown
        self.max_prediction_batch = max_prediction_batch
        self.training_batch_rollouts = training_batch_rollouts

    def build_sim(self, engine: Engine) -> "GA3CSim":
        return GA3CSim(self, engine)


class GA3CSim(ChainSim):
    """Predictor/trainer-queue simulation of GA3C.

    Agents talk to the device only through :attr:`predict_queue` (a
    waker per inference) and :attr:`train_queue` (a rollout length per
    training task)."""

    chain_class = _GA3CAgentChain

    def __init__(self, platform: GA3CTFPlatform, engine: Engine):
        self.platform = platform
        self.engine = engine
        self.device = Resource(engine, capacity=1, name="gpu")
        self.predict_queue = Store(engine, name="predict")
        self.train_queue = Store(engine, name="train")
        _GA3CPredictorChain(self)
        _GA3CTrainerChain(self)

    def utilisation(self) -> float:
        """Device occupancy (drives the power model)."""
        return self.device.utilisation()
