"""Memoized stage plans keyed on (topology, batch, direction, config).

A *stage plan* is everything :class:`repro.fpga.simloop.FPGASim` needs
to execute one :class:`~repro.fpga.timing.StageTiming` — compute
seconds, per-channel DMA hold durations, byte/burst counter increments,
and the cycle-attribution template — computed once per key and replayed
by every task that needs it.  The golden digests in
``tests/test_sim_golden.py`` run every case from a cold and a warm cache
and pin both bit-for-bit.

Plans are pure data: they reference no engine, resources, or metric
objects, so one global :data:`CACHE` is shared by every simulator
instance.  The cache key covers every :class:`FPGAConfig` field that
feeds the timing model (the key is recomputed from the live config at
each lookup, so in-place config mutation naturally misses) plus the
frozen, hashable :class:`~repro.nn.network.NetworkTopology`.  A sim
looks each task up once, when an agent chain is built.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.fpga.timing import GLOBAL, LOCAL, StageTiming
from repro.obs.prof import buckets as _prof

ConfigKey = typing.Tuple

#: FPGAConfig fields that influence modelled stage timing, traffic, or
#: attribution.  ``device`` is capacity metadata and deliberately absent.
#: ``precision`` changes words-per-beat, PE density, and byte accounting,
#: so omitting it would alias quantized and fp32 plans in the cache.
CONFIG_KEY_FIELDS = (
    "name", "clock_hz", "n_pe", "cu_pairs", "single_cu", "layout_mode",
    "dram_efficiency", "double_buffering", "global_channels", "num_rus",
    "pcie_bandwidth", "pcie_latency", "precision",
)


def config_key(config) -> ConfigKey:
    """Hashable tuple of the timing-relevant config fields."""
    return (config.name, config.clock_hz, config.n_pe, config.cu_pairs,
            config.single_cu, config.layout_mode, config.dram_efficiency,
            config.double_buffering, config.global_channels,
            config.num_rus, config.pcie_bandwidth, config.pcie_latency,
            config.precision)


@dataclasses.dataclass(frozen=True)
class StagePlan:
    """One stage's precomputed execution and attribution template."""

    stage: StageTiming
    name: str
    compute_cycles: int
    compute_seconds: float
    #: Local-channel hold duration (0 words -> no hold).
    local_words: int
    local_seconds: float
    #: Per-global-channel striped share (0 words -> no holds).
    global_share_words: int
    global_share_seconds: float
    double_buffering: bool
    # -- attribution template (mirrors obs.prof.buckets exactly) --------
    kind: str
    layer: str
    compute_bucket: str
    work_cycles: int
    overhead_cycles: int
    transform_words: int
    dma_words: int
    #: ``(direction, bytes, bursts)`` rows for the pair-local channel.
    local_traffic: typing.Tuple[typing.Tuple[str, int, int], ...]
    #: ``(direction, bytes, bursts)`` rows applied to *each* global
    #: channel (the striped share of that direction's words).
    global_traffic: typing.Tuple[typing.Tuple[str, int, int], ...]


@dataclasses.dataclass(frozen=True)
class TaskPlan:
    """A task's stage plans plus its host-link (PCIe) bookends."""

    kind: str
    batch: int
    stages: typing.Tuple[StagePlan, ...]
    pcie_in_seconds: float = 0.0
    pcie_out_seconds: float = 0.0

    @property
    def stage_timings(self) -> typing.Tuple[StageTiming, ...]:
        return tuple(plan.stage for plan in self.stages)


def build_stage_plan(platform, stage: StageTiming) -> StagePlan:
    """Precompute one stage's execution and attribution template."""
    config = platform.config
    compute_seconds = stage.compute_cycles / config.clock_hz
    local_words = stage.words(LOCAL)
    local_seconds = platform._words_seconds(local_words) \
        if local_words else 0.0
    global_words = stage.words(GLOBAL)
    if global_words:
        share = -(-global_words // config.global_channels)
        global_share_seconds = platform._words_seconds(share)
    else:
        share = 0
        global_share_seconds = 0.0
    kind, layer = _prof.split_stage_name(stage.name)
    overhead = min(stage.overhead_cycles, stage.compute_cycles)
    dma_words = stage.total_load_words + stage.total_store_words
    word_bytes = config.word_bytes
    words_per_beat = config.words_per_beat
    local_traffic = []
    global_traffic = []
    for direction, words_by_channel in (("load", stage.loads),
                                        ("store", stage.stores)):
        words = words_by_channel.get(LOCAL, 0)
        if words:
            local_traffic.append((direction, words * word_bytes,
                                  -(-words // words_per_beat)))
        words = words_by_channel.get(GLOBAL, 0)
        if words:
            dir_share = -(-words // config.global_channels)
            global_traffic.append((direction, dir_share * word_bytes,
                                   -(-dir_share // words_per_beat)))
    return StagePlan(
        stage=stage,
        name=stage.name,
        compute_cycles=stage.compute_cycles,
        compute_seconds=compute_seconds,
        local_words=local_words,
        local_seconds=local_seconds,
        global_share_words=share,
        global_share_seconds=global_share_seconds,
        double_buffering=config.double_buffering,
        kind=kind,
        layer=layer,
        compute_bucket=_prof.compute_bucket(kind),
        work_cycles=stage.compute_cycles - overhead,
        overhead_cycles=overhead,
        transform_words=min(stage.transform_words, dma_words),
        dma_words=dma_words,
        local_traffic=tuple(local_traffic),
        global_traffic=tuple(global_traffic),
    )


def build_task_plan(platform, kind: str, batch: int) -> TaskPlan:
    """Derive a full task's plan from the platform's timing model."""
    timing = platform.timing
    config = platform.config
    pcie_in = pcie_out = 0.0
    if kind == "inference":
        stages = timing.inference_task(batch)
        pcie_in = config.pcie_latency \
            + batch * timing.input_words(1) * config.word_bytes \
            / config.pcie_bandwidth
        last = platform.topology.layers[-1]
        pcie_out = config.pcie_latency \
            + batch * last.num_outputs * config.word_bytes \
            / config.pcie_bandwidth
    elif kind == "train":
        stages = timing.training_task(batch)
    elif kind == "sync":
        stages = timing.sync_task()
    else:
        raise ValueError(f"unknown task kind {kind!r}")
    return TaskPlan(kind=kind, batch=batch,
                    stages=tuple(build_stage_plan(platform, stage)
                                 for stage in stages),
                    pcie_in_seconds=pcie_in, pcie_out_seconds=pcie_out)


class PlanCache:
    """Global (config, topology, kind, batch) -> :class:`TaskPlan` map."""

    def __init__(self):
        self._plans: typing.Dict[tuple, TaskPlan] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._plans)

    def task_plan(self, platform, kind: str, batch: int) -> TaskPlan:
        key = (kind, batch, config_key(platform.config), platform.topology)
        plan = self._plans.get(key)
        if plan is None:
            self.misses += 1
            plan = build_task_plan(platform, kind, batch)
            self._plans[key] = plan
        else:
            self.hits += 1
        return plan

    def clear(self) -> None:
        self._plans.clear()
        self.hits = 0
        self.misses = 0


#: The process-wide plan cache (plans are immutable pure data).
CACHE = PlanCache()


def task_plan(platform, kind: str, batch: int) -> TaskPlan:
    """Convenience accessor on the global :data:`CACHE`."""
    return CACHE.task_plan(platform, kind, batch)
