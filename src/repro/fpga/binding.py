"""Bound-stage scheduling: cached plans resolved to one simulator.

A :class:`~repro.perf.stageplan.StagePlan` is pure data shared by every
simulator instance; a :class:`BoundStage` is that plan *bound* to one
:class:`~repro.fpga.simloop.FPGASim` — channel resources resolved to the
sim's CU pair, attribution counter cells pre-resolved lazily so the
replay increments cells instead of re-sorting label dicts per stage.
:class:`BoundTask` caches a whole task's bound stages plus its PCIe
bookends.

The attribution is the integer arithmetic of
:func:`repro.obs.prof.buckets.fpga_stage_buckets` on the stage's
snapped cycle count.  The golden digests in ``tests/test_sim_golden.py``
pin every counter bit-for-bit; ``BENCH_fa3c.json`` pins the bucket
shares.
"""

from __future__ import annotations

import typing

from repro.obs.prof import buckets as _prof
from repro.perf import stageplan as _stageplan

if typing.TYPE_CHECKING:                     # pragma: no cover
    from repro.fpga.simloop import FPGASim


class BoundStage:
    """One :class:`~repro.perf.stageplan.StagePlan` bound to a simulator
    instance: channel resources resolved, attribution counter cells
    pre-resolved lazily (labels sorted once, not per increment)."""

    __slots__ = ("plan", "name", "compute_seconds", "double_buffering",
                 "holds", "cu_name", "task", "clock_hz", "_local_name",
                 "_global_names", "_cells")

    def __init__(self, sim: "FPGASim", plan: _stageplan.StagePlan,
                 pair: int, cu_name: str, task: str):
        self.plan = plan
        self.name = plan.name
        self.compute_seconds = plan.compute_seconds
        self.double_buffering = plan.double_buffering
        holds = []
        if plan.local_words:
            holds.append((sim.local_channels[pair], plan.local_seconds))
        if plan.global_share_words:
            for channel in sim.global_channels:
                holds.append((channel, plan.global_share_seconds))
        self.holds = tuple(holds)
        self.cu_name = cu_name
        self.task = task
        self.clock_hz = sim.platform.config.clock_hz
        self._local_name = sim.local_channels[pair].name
        self._global_names = tuple(channel.name
                                   for channel in sim.global_channels)
        self._cells = None

    def _build_cells(self, metrics):
        plan = self.plan
        counter = metrics.counter(_prof.FPGA_CYCLES_METRIC)
        labels = dict(cu=self.cu_name, task=self.task, stage=plan.kind,
                      layer=plan.layer)
        traffic = metrics.counter("fpga.dram.bytes")
        bursts = metrics.counter("fpga.dram.bursts")
        dma = []
        for direction, num_bytes, num_bursts in plan.local_traffic:
            dma.append((traffic.cell(channel=self._local_name,
                                     dir=direction), num_bytes))
            dma.append((bursts.cell(channel=self._local_name),
                        num_bursts))
        for direction, num_bytes, num_bursts in plan.global_traffic:
            for name in self._global_names:
                dma.append((traffic.cell(channel=name, dir=direction),
                            num_bytes))
                dma.append((bursts.cell(channel=name), num_bursts))
        cells = (
            metrics,
            counter.cell(bucket=plan.compute_bucket, **labels),
            counter.cell(bucket=_prof.CONTROL, **labels),
            counter.cell(bucket=_prof.BUFFER_STALL, **labels),
            counter.cell(bucket=_prof.TLU_LAYOUT, **labels),
            counter.cell(bucket=_prof.DRAM_WAIT, **labels),
            metrics.counter(_prof.FPGA_CYCLES_TOTAL_METRIC).cell(
                cu=self.cu_name),
            tuple(dma),
        )
        self._cells = cells
        return cells

    def record(self, metrics, elapsed: float) -> None:
        """Count one executed stage's DRAM bytes/bursts and attribute
        its cycles to cause buckets.

        The simulated duration is snapped to integer cycles (DMA burst
        times are fractional-cycle at the modelled efficiency, so up to
        half a cycle per stage is rounded away); the total counter is
        incremented by the bucket sum, so buckets sum to the total
        exactly."""
        cells = self._cells
        if cells is None or cells[0] is not metrics:
            cells = self._build_cells(metrics)
        (_registry, work_c, control_c, stall_c, tlu_c, dram_c,
         total_c, dma) = cells
        for cell, value in dma:
            cell.inc(value)
        plan = self.plan
        cycles = int(round(elapsed * self.clock_hz))
        compute = plan.compute_cycles
        total = cycles if cycles > compute else compute
        if plan.work_cycles:
            work_c.inc(plan.work_cycles)
        if plan.overhead_cycles:
            control_c.inc(plan.overhead_cycles)
        residual = total - compute
        if residual > 0:
            if not self.double_buffering and compute:
                stall_c.inc(residual)
            else:
                transform = 0
                if plan.transform_words:
                    transform = (residual * plan.transform_words
                                 // plan.dma_words)
                if transform:
                    tlu_c.inc(transform)
                rest = residual - transform
                if rest:
                    dram_c.inc(rest)
        total_c.inc(total)


class BoundTask:
    """A cached :class:`~repro.perf.stageplan.TaskPlan` bound to one
    simulator's resources for one CU pair.

    ``cu`` is the CU the task holds (None for a parameter sync, which
    occupies channels only); ``cu_name`` names its trace lane and
    metric label (``sync<pair>`` for a sync)."""

    __slots__ = ("plan", "stages", "cu", "cu_name", "task",
                 "pcie_in_seconds", "pcie_out_seconds", "_cells")

    def __init__(self, sim: "FPGASim", plan: _stageplan.TaskPlan,
                 pair: int, cu, task: str):
        self.plan = plan
        self.cu = cu
        self.cu_name = cu.name if cu is not None else f"sync{pair}"
        self.task = task
        self.stages = tuple(BoundStage(sim, stage_plan, pair,
                                       self.cu_name, task)
                            for stage_plan in plan.stages)
        self.pcie_in_seconds = plan.pcie_in_seconds
        self.pcie_out_seconds = plan.pcie_out_seconds
        self._cells = None

    def record_task(self, metrics, elapsed: float) -> None:
        cells = self._cells
        if cells is None or cells[0] is not metrics:
            cells = (metrics,
                     metrics.counter("fpga.cu.busy_seconds").cell(
                         cu=self.cu_name),
                     metrics.counter("fpga.cu.tasks").cell(
                         cu=self.cu_name, task=self.task))
            self._cells = cells
        cells[1].inc(elapsed)
        cells[2].inc()
