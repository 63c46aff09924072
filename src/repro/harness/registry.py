"""The registry of every table and figure the paper reports.

Each entry records what the paper shows, the quantitative anchors our
reproduction should match in *shape*, and which bench regenerates it —
the machine-readable version of the DESIGN.md per-experiment index.
"""

from __future__ import annotations

import dataclasses
import typing


@dataclasses.dataclass(frozen=True)
class Experiment:
    """One paper table/figure and its reproduction metadata."""

    exp_id: str                 # e.g. "table1", "fig8"
    title: str
    paper_anchors: typing.Tuple[str, ...]
    modules: typing.Tuple[str, ...]
    bench: str
    backends: typing.Tuple[str, ...] = ()
    """Compute backends (``repro.backends`` registry names) the
    experiment exercises; empty for purely analytic tables."""


EXPERIMENTS: typing.Dict[str, Experiment] = {
    e.exp_id: e for e in [
        Experiment(
            "table1", "DNN layers used in A3C for Atari 2600 games",
            ("Conv1 4K params / 6K outputs", "Conv2 8K / 3K",
             "FC3 664K / 256", "FC4 8K / 32", "input 28K features"),
            ("repro.nn.network",),
            "benchmarks/bench_table1_network.py"),
        Experiment(
            "table2", "Off-chip data traffic in A3C training",
            ("total load ~24.5 MB / store ~7.8 MB per routine",
             "parameter set ~2.6 MB"),
            ("repro.analysis.traffic", "repro.fpga.timing"),
            "benchmarks/bench_table2_traffic.py",
            backends=("fa3c-fpga",)),
        Experiment(
            "table3", "Sizes of line buffers",
            ("FW input line buffer width C_in",
             "GC uses K + floor(N_PE/K^2) line buffers",
             "BW uses floor(N_PE/(M_w*C_in)) line buffers"),
            ("repro.analysis.linebuffers", "repro.fpga.buffers"),
            "benchmarks/bench_table3_linebuffers.py",
            backends=("fa3c-fpga",)),
        Experiment(
            "table4", "FPGA resource usage breakdown on VU9P",
            ("~57% logic, ~37% registers, ~41% memory blocks, ~34% DSPs",
             "2048 DSPs in PEs"),
            ("repro.fpga.resources",),
            "benchmarks/bench_table4_resources.py",
            backends=("fa3c-fpga",)),
        Experiment(
            "fig8", "Performance of A3C Deep RL platforms (IPS vs agents)",
            ("FA3C > 2550 IPS at n=16", "FA3C 27.9% over A3C-cuDNN",
             "ordering FA3C > cuDNN > GA3C-TF > TF-GPU > TF-CPU",
             "peak at n >= 16"),
            ("repro.platforms.throughput", "repro.backends"),
            "benchmarks/bench_fig8_throughput.py",
            backends=("fa3c-fpga", "a3c-cudnn", "ga3c-tf",
                      "a3c-tf-gpu", "a3c-tf-cpu")),
        Experiment(
            "fig9", "Power and energy efficiency",
            ("FA3C ~18 W (-30% vs cuDNN)", ">142 inferences/Watt",
             "~1.6x efficiency vs A3C-cuDNN"),
            ("repro.power.model",),
            "benchmarks/bench_fig9_energy.py",
            backends=("fa3c-fpga", "a3c-cudnn", "ga3c-tf",
                      "a3c-tf-gpu", "a3c-tf-cpu")),
        Experiment(
            "fig10", "Performance of FA3C configurations",
            ("Alt1 ~33% lower at n=16", "Alt2 slightly lower",
             "SingleCU better for n < 4, worse for n >= 4"),
            ("repro.fpga.platform", "repro.fpga.timing"),
            "benchmarks/bench_fig10_ablation.py",
            backends=("fa3c-fpga", "fa3c-alt1", "fa3c-alt2",
                      "fa3c-single-cu")),
        Experiment(
            "fig11", "GPU computation time under parameter layouts",
            ("inference with BW layout 41.7% slower (FC layers)",
             "matched layouts fastest but need a transform kernel",
             "OpenCL within 12% of cuDNN"),
            ("repro.gpu.layout_experiment",),
            "benchmarks/bench_fig11_gpu_layout.py",
            backends=("a3c-cudnn", "a3c-tf-gpu")),
        Experiment(
            "fig12", "Atari game training results",
            ("six games trained with 16 agents, lr 7e-4 annealed",
             "FPGA and GPU numerics show the same training trends",
             "moving average over game scores rises with steps"),
            ("repro.core.trainer", "repro.ale", "repro.fpga.cu"),
            "benchmarks/bench_fig12_training.py",
            backends=("fa3c-fpga",)),
        Experiment(
            "s32", "t_max vs training steps (Section 3.2)",
            ("t_max 32 needs ~2x the steps of t_max 5 to reach a "
             "score threshold on Breakout",),
            ("repro.core.trainer", "repro.ale.vec.breakout"),
            "benchmarks/bench_s32_tmax.py"),
        Experiment(
            "s33", "Operational intensity / batch-size wall "
                   "(Sections 3.2-3.3)",
            ("conv layers compute-rich at batch 1, FC layers "
             "bandwidth-bound", "FC3 intensity < 1 FLOP/byte at batch 1",
             "accumulation frequencies span orders of magnitude"),
            ("repro.analysis.roofline",),
            "benchmarks/bench_s33_roofline.py"),
        Experiment(
            "s34", "Kernel launch overhead (Section 3.4)",
            ("GPU launch overhead > 38% of kernel execution time",
             "FPGA task overhead < 0.02%"),
            ("repro.gpu.kernel", "repro.fpga.timing"),
            "benchmarks/bench_s34_launch_overhead.py",
            backends=("fa3c-fpga", "a3c-cudnn")),
    ]
}


def get_experiment(exp_id: str) -> Experiment:
    """Look up an experiment by id (raises ``KeyError`` with choices)."""
    if exp_id not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {exp_id!r}; "
                       f"available: {sorted(EXPERIMENTS)}")
    return EXPERIMENTS[exp_id]
