"""Cycle-cause buckets and the per-stage decomposition rules.

The FA3C paper's performance arguments — the Figure 10 configuration
ablation, the Table 2 traffic budget, the Section 3.2 roofline — are all
statements about *where the cycles go*: PE compute vs. DRAM stalls vs.
layout transformation vs. fixed control overheads.  This module defines
the canonical cause buckets and the decomposition of one executed stage
into them.  It is shared by

* the discrete-event FPGA simulator (measured, contended durations in
  integer cycles — :meth:`repro.fpga.binding.BoundStage.record`, per
  stage :class:`repro.fpga.simloop.FPGASim` executes), and
* the analytic platform model (uncontended durations in fractional
  cycles — :meth:`repro.fpga.platform.FA3CPlatform.stage_attribution`).

The cardinal rule is that **buckets partition the total**: every
decomposition returned here sums to exactly the cycles it was asked to
attribute (bit-exact on the integer path), so per-layer and per-CU
aggregations always reconcile with end-to-end simulated time.  The test
suite asserts this invariant for every Table 1 network / batch / stage
combination.
"""

from __future__ import annotations

import typing

# -- FPGA cause buckets ----------------------------------------------------

#: Cycles the PE array spends computing FW / BW / GC rounds.
PE_COMPUTE = "pe_compute"
#: Cycles a double-buffered stage waits for DMA that did not hide under
#: compute (channel occupancy + queueing behind other CUs).
DRAM_WAIT = "dram_wait"
#: Cycles the PEs stall for serialised buffer refills when double
#: buffering is disabled (Section 4.4.3 ablation).
BUFFER_STALL = "buffer_stall"
#: DMA-bound cycles attributable to layout transformation traffic: the
#: TLU-transposed BW parameter load (Section 4.4.3) or the Alt2 second
#: layout copy written per RMSProp update (Section 5.4).
TLU_LAYOUT = "tlu_layout"
#: Cycles of the RMSProp module's global parameter update (Section 4.2.3).
RMSPROP = "rmsprop"
#: Fixed control cycles: pipeline fill, buffer swap, task decode /
#: handshake (the FPGA analogue of a kernel launch, Section 3.4).
CONTROL = "control"

FPGA_BUCKETS: typing.Tuple[str, ...] = (
    PE_COMPUTE, DRAM_WAIT, BUFFER_STALL, TLU_LAYOUT, RMSPROP, CONTROL)

# -- GPU / host-software cause buckets ------------------------------------

#: Kernel body execution time (compute- or bandwidth-limited).
GPU_KERNEL = "kernel"
#: Kernel launch overhead — the Section 3.4 ">38 % of A3C kernel time".
GPU_LAUNCH = "launch"
#: Framework overhead: TF ``session.run`` dispatch, GA3C per-request
#: queue handling, CPU executor scheduling.
GPU_FRAMEWORK = "framework"
#: Host<->device PCIe DMA time.
GPU_MEMCPY = "memcpy"

GPU_BUCKETS: typing.Tuple[str, ...] = (
    GPU_KERNEL, GPU_LAUNCH, GPU_FRAMEWORK, GPU_MEMCPY)

#: Layer label for stages that span the whole parameter set rather than
#: one layer (RMSProp update, parameter sync).
GLOBAL_LAYER = "global"

#: Metric names the attribution flows through (see docs/observability.md).
FPGA_CYCLES_METRIC = "fpga.cycles"
FPGA_CYCLES_TOTAL_METRIC = "fpga.cycles.total"
GPU_TIME_METRIC = "gpu.time_ns"
GPU_TIME_TOTAL_METRIC = "gpu.time_ns.total"


def split_stage_name(name: str) -> typing.Tuple[str, str]:
    """``("FW", "conv1")`` from ``"FW:conv1"``.

    Whole-parameter-set stages (``RMSProp``, ``ParamSync``) carry no
    layer suffix and map to the :data:`GLOBAL_LAYER` pseudo-layer.
    """
    if ":" in name:
        kind, layer = name.split(":", 1)
        return kind, layer
    return name, GLOBAL_LAYER


def compute_bucket(kind: str) -> str:
    """The bucket a stage kind's compute cycles belong to."""
    return RMSPROP if kind == "RMSProp" else PE_COMPUTE


def fpga_stage_buckets(stage, total_cycles,
                       double_buffering: bool = True
                       ) -> typing.Dict[str, typing.Union[int, float]]:
    """Decompose one executed stage into cause buckets.

    ``stage`` is a :class:`repro.fpga.timing.StageTiming` (duck-typed:
    ``name``, ``compute_cycles``, ``overhead_cycles``,
    ``transform_words`` and the word totals are read).  ``total_cycles``
    is the stage's observed duration and must be at least
    ``stage.compute_cycles`` — in the discrete-event simulator it always
    is, because compute is one of the events the stage waits on.

    Returns ``{bucket: cycles}`` whose values **sum to exactly
    ``total_cycles``** (bit-exact when ``total_cycles`` is an int).
    """
    if total_cycles < stage.compute_cycles:
        raise ValueError(
            f"stage {stage.name!r}: total {total_cycles} is below its "
            f"compute floor {stage.compute_cycles}")
    kind, _layer = split_stage_name(stage.name)
    buckets: typing.Dict[str, typing.Union[int, float]] = {}
    overhead = min(getattr(stage, "overhead_cycles", 0),
                   stage.compute_cycles)
    work = stage.compute_cycles - overhead
    if work:
        buckets[compute_bucket(kind)] = work
    if overhead:
        buckets[CONTROL] = overhead
    residual = total_cycles - stage.compute_cycles
    if residual > 0:
        buckets.update(split_residual(stage, residual, double_buffering))
    return buckets


def split_residual(stage, residual, double_buffering: bool = True
                   ) -> typing.Dict[str, typing.Union[int, float]]:
    """Classify the non-compute share of a stage's duration.

    Without double buffering the PEs stall while each parameter / line
    buffer refills serially, so the whole residual is a *buffer refill
    stall*.  With double buffering the residual is DMA time that did not
    hide under compute; the share carried by layout-transformation
    traffic (``stage.transform_words`` — the TLU-loaded BW parameters or
    the Alt2 second layout copy) is attributed to :data:`TLU_LAYOUT`
    pro rata by word count, the rest to :data:`DRAM_WAIT`.

    The returned values sum to exactly ``residual`` on the integer path
    (the transform share uses floor division; the remainder goes to
    :data:`DRAM_WAIT`).
    """
    if residual <= 0:
        return {}
    if not double_buffering and stage.compute_cycles:
        # The PEs sat idle while each buffer refilled serially.  Pure-DMA
        # stages (ParamSync) never engage the PEs, so they fall through
        # to the DMA classification below instead.
        return {BUFFER_STALL: residual}
    out: typing.Dict[str, typing.Union[int, float]] = {}
    dma_words = stage.total_load_words + stage.total_store_words
    transform_words = min(getattr(stage, "transform_words", 0), dma_words)
    transform: typing.Union[int, float] = 0
    if transform_words and dma_words:
        if isinstance(residual, int):
            transform = residual * transform_words // dma_words
        else:
            transform = residual * (transform_words / dma_words)
    if transform:
        out[TLU_LAYOUT] = transform
    rest = residual - transform
    if rest:
        out[DRAM_WAIT] = rest
    return out
