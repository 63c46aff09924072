"""Whole-platform FPGA configurations (FA3C and its ablations).

A :class:`FA3CPlatform` owns the timing model and exposes:

* analytic, uncontended task latencies (inference / training / sync);
* a discrete-event *simulation instance* in which CUs and DRAM channels
  are shared resources, used by the throughput experiments (Figures 8
  and 10) where contention between agents is the whole story.

Configurations:

* ``FA3CPlatform.fa3c()`` — the proposed design: per pair, one CU
  dedicated to inference and one to training (asymmetric loads sharing
  the off-chip bandwidth, Section 4.2.2).
* ``.single_cu()`` — one CU with 2N PEs per pair serving both task types.
* ``.alt1()`` — FW parameter layout for all computation types.
* ``.alt2()`` — both layouts materialised in DRAM (extra store traffic).

This module is the *orchestration* layer only; the simulation loop lives
in :mod:`repro.fpga.simloop` and the bound-stage scheduling in
:mod:`repro.fpga.binding`.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.fpga.resources import VU9P, DeviceCapacity, ResourceModel
from repro.fpga.timing import GLOBAL, LOCAL, StageTiming, TimingModel
from repro.nn.network import NetworkTopology
from repro.obs.prof import buckets as _prof
from repro.precision import Precision, resolve_precision
from repro.sim import Engine, Tracer

if typing.TYPE_CHECKING:                     # pragma: no cover
    from repro.fpga.simloop import FPGASim


@dataclasses.dataclass
class FPGAConfig:
    """Parameters of an FA3C hardware configuration."""

    name: str = "FA3C"
    clock_hz: float = 180e6
    n_pe: int = 64                   # PEs per CU
    cu_pairs: int = 2                # the VCU1525 build has two pairs
    single_cu: bool = False          # SingleCU ablation (2N-PE single CU)
    layout_mode: str = "fa3c"        # "fa3c" | "alt1" | "alt2"
    dram_efficiency: float = 0.70    # achieved fraction of burst peak
    double_buffering: bool = True    # overlap DMA with compute (4.4.3)
    global_channels: int = 2         # global theta/g striped over channels
    num_rus: int = 8
    device: DeviceCapacity = VU9P
    pcie_bandwidth: float = 11e9     # effective host-link bytes/s
    pcie_latency: float = 8e-6       # per-DMA descriptor latency
    precision: str = "fp32"          # operand width of the datapath

    def __post_init__(self):
        for field in ("cu_pairs", "global_channels", "n_pe", "num_rus"):
            value = getattr(self, field)
            if value < 1:
                raise ValueError(f"{field} must be >= 1, got {value!r}")
        for field in ("clock_hz", "pcie_bandwidth"):
            value = getattr(self, field)
            if not value > 0:
                raise ValueError(f"{field} must be > 0, got {value!r}")
        if not 0 < self.dram_efficiency <= 1:
            raise ValueError("dram_efficiency must be in (0, 1], got "
                             f"{self.dram_efficiency!r}")

    @property
    def cus_per_pair(self) -> int:
        return 1 if self.single_cu else 2

    @property
    def precision_spec(self) -> Precision:
        """The resolved :class:`~repro.precision.Precision`."""
        return resolve_precision(self.precision)

    @property
    def words_per_beat(self) -> int:
        """Operands per 512-bit DRAM beat (16 at fp32)."""
        return self.precision_spec.words_per_beat

    @property
    def word_bytes(self) -> int:
        """Bytes per operand in DRAM and over the host link."""
        return self.precision_spec.storage_bytes

    @property
    def pe_per_cu(self) -> int:
        """PEs one CU hosts: ``n_pe`` is the fp32 PE budget; narrower
        operands pack more MACs into the same DSP/logic budget."""
        base = 2 * self.n_pe if self.single_cu else self.n_pe
        return base * self.precision_spec.pe_scale


class FA3CPlatform:
    """The FA3C platform model for one network topology."""

    def __init__(self, topology: NetworkTopology,
                 config: typing.Optional[FPGAConfig] = None):
        self.topology = topology
        self.config = config or FPGAConfig()
        self.timing = TimingModel(topology, n_pe=self.config.pe_per_cu,
                                  layout_mode=self.config.layout_mode,
                                  num_rus=self.config.num_rus,
                                  precision=self.config.precision_spec)

    # -- constructors for the Section 5.4 configurations --------------------

    @classmethod
    def fa3c(cls, topology: NetworkTopology,
             **overrides) -> "FA3CPlatform":
        return cls(topology, FPGAConfig(name="FA3C", **overrides))

    @classmethod
    def single_cu(cls, topology: NetworkTopology,
                  **overrides) -> "FA3CPlatform":
        return cls(topology, FPGAConfig(name="FA3C-SingleCU",
                                        single_cu=True, **overrides))

    @classmethod
    def alt1(cls, topology: NetworkTopology,
             **overrides) -> "FA3CPlatform":
        return cls(topology, FPGAConfig(name="FA3C-Alt1",
                                        layout_mode="alt1", **overrides))

    @classmethod
    def alt2(cls, topology: NetworkTopology,
             **overrides) -> "FA3CPlatform":
        return cls(topology, FPGAConfig(name="FA3C-Alt2",
                                        layout_mode="alt2", **overrides))

    # -- quantized-datapath variants (precision-parametric family) ----------

    @classmethod
    def fp16(cls, topology: NetworkTopology,
             **overrides) -> "FA3CPlatform":
        """fp16 storage with fp32 accumulate: 32 words/beat, 2x PEs."""
        overrides.setdefault("precision", "fp16")
        return cls(topology, FPGAConfig(name="FA3C-FP16", **overrides))

    @classmethod
    def int8(cls, topology: NetworkTopology,
             **overrides) -> "FA3CPlatform":
        """int8 symmetric quantized datapath: 64 words/beat, 4x PEs."""
        overrides.setdefault("precision", "int8")
        return cls(topology, FPGAConfig(name="FA3C-INT8", **overrides))

    # -- analytic latencies ---------------------------------------------------

    def _words_seconds(self, words: int) -> float:
        beats = -(-words // self.config.words_per_beat)
        return beats / self.config.dram_efficiency / self.config.clock_hz

    def stage_seconds(self, stage: StageTiming) -> float:
        """Uncontended stage duration: compute overlaps channel traffic
        (double-buffered), so the slowest of the three wins.

        Global traffic (theta and the RMSProp g) is striped across
        ``global_channels`` DDR4 channels — the VCU1525 has four channels
        and the paper places global and local parameters in different
        channels (Section 4.1)."""
        compute = stage.compute_cycles / self.config.clock_hz
        local = self._words_seconds(stage.words(LOCAL))
        global_ = self._words_seconds(
            -(-stage.words(GLOBAL) // self.config.global_channels))
        if not self.config.double_buffering:
            # Without double-buffered parameter/line buffers the PEs
            # stall while each buffer refills.
            return compute + local + global_
        return max(compute, local, global_)

    def task_seconds(self, stages: typing.Sequence[StageTiming]) -> float:
        return sum(self.stage_seconds(stage) for stage in stages)

    def stage_attribution(self, stage: StageTiming
                          ) -> typing.Dict[str, float]:
        """Uncontended stage duration split into cause buckets.

        Fractional cycles summing to ``stage_seconds(stage) * clock_hz``
        (up to float rounding); the measured counterpart is recorded per
        executed stage by :class:`~repro.fpga.simloop.FPGASim`.
        """
        total = self.stage_seconds(stage) * self.config.clock_hz
        # stage_seconds round-trips compute_cycles through seconds;
        # clamp the last-ulp loss so the compute floor holds exactly.
        total = max(total, float(stage.compute_cycles))
        return _prof.fpga_stage_buckets(stage, total,
                                        self.config.double_buffering)

    def task_attribution(self, stages: typing.Sequence[StageTiming]
                         ) -> typing.Dict[str, float]:
        """Summed :meth:`stage_attribution` over a task's stages."""
        totals: typing.Dict[str, float] = {}
        for stage in stages:
            for bucket, cycles in self.stage_attribution(stage).items():
                totals[bucket] = totals.get(bucket, 0.0) + cycles
        return totals

    def inference_latency(self, batch: int = 1) -> float:
        """Uncontended single-inference latency in seconds."""
        return self.task_seconds(self.timing.inference_task(batch))

    def training_latency(self, batch: int = 5) -> float:
        """Uncontended training-task latency in seconds."""
        return self.task_seconds(self.timing.training_task(batch))

    def sync_latency(self) -> float:
        """Uncontended parameter-sync latency in seconds."""
        return self.task_seconds(self.timing.sync_task())

    def task_launch_overhead(self) -> float:
        """Per-task control overhead in seconds (Section 3.4: < 0.02 %)."""
        return self.timing.TASK_OVERHEAD_CYCLES / self.config.clock_hz

    def resource_model(self) -> ResourceModel:
        """Table 4 resource estimate of this configuration."""
        num_cus = self.config.cu_pairs * self.config.cus_per_pair
        return ResourceModel(num_cus=num_cus, n_pe=self.config.pe_per_cu,
                             num_rus=self.config.num_rus,
                             device=self.config.device,
                             precision=self.config.precision_spec)

    def build_sim(self, engine: Engine,
                  tracer: typing.Optional["Tracer"] = None) -> "FPGASim":
        """A discrete-event instance with shared CUs and channels.

        Pass a :class:`~repro.sim.Tracer` to record a per-CU stage
        Gantt chart of the run."""
        from repro.fpga.simloop import FPGASim

        return FPGASim(self, engine, tracer=tracer)

