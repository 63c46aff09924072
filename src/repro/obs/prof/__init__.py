"""repro.obs.prof — cycle-attribution profiling over :mod:`repro.obs`.

Layered on the PR-1 metrics/tracer: the instrumented platforms tag every
simulated cycle (FPGA) or modelled nanosecond (GPU) with a *cause
bucket* (:mod:`~repro.obs.prof.buckets`); the attribution engine
aggregates per-CU / per-layer / per-stage with a hard buckets-sum-to-
total invariant (:mod:`~repro.obs.prof.attribution`); exports feed
flamegraph viewers (:mod:`~repro.obs.prof.folded`), the measured-vs-
roofline gap report (:mod:`~repro.obs.prof.roofline_gap`) and the
``repro bench`` perf-regression gate (:mod:`~repro.obs.prof.baseline`).

``baseline`` and ``roofline_gap`` import the platform models, which in
turn import :mod:`repro.obs` — so they are exposed lazily (PEP 562) to
keep this package importable from inside those platform modules.
"""

from repro.obs.prof.attribution import AttributionError, AttributionReport
from repro.obs.prof.buckets import (
    FPGA_BUCKETS,
    FPGA_CYCLES_METRIC,
    FPGA_CYCLES_TOTAL_METRIC,
    GPU_BUCKETS,
    GPU_TIME_METRIC,
    GPU_TIME_TOTAL_METRIC,
    fpga_stage_buckets,
    split_stage_name,
)
from repro.obs.prof.folded import folded_lines, read_folded, write_folded

_LAZY_MODULES = ("baseline", "roofline_gap")
_LAZY_NAMES = {
    "DEFAULT_BASELINE": "baseline",
    "SCENARIOS": "baseline",
    "collect_snapshot": "baseline",
    "diff_scenarios": "baseline",
    "load_snapshot": "baseline",
    "run_scenario": "baseline",
    "scenario_names": "baseline",
    "write_snapshot": "baseline",
    "fpga_roofline_gap_rows": "roofline_gap",
}

__all__ = [
    "AttributionError",
    "AttributionReport",
    "FPGA_BUCKETS",
    "FPGA_CYCLES_METRIC",
    "FPGA_CYCLES_TOTAL_METRIC",
    "GPU_BUCKETS",
    "GPU_TIME_METRIC",
    "GPU_TIME_TOTAL_METRIC",
    "folded_lines",
    "fpga_stage_buckets",
    "read_folded",
    "split_stage_name",
    "write_folded",
] + sorted(set(_LAZY_NAMES) | set(_LAZY_MODULES))


def __getattr__(name):
    import importlib
    if name in _LAZY_MODULES:
        return importlib.import_module(f"repro.obs.prof.{name}")
    if name in _LAZY_NAMES:
        module = importlib.import_module(
            f"repro.obs.prof.{_LAZY_NAMES[name]}")
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
