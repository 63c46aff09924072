"""repro.obs — unified metrics and tracing for the reproduction.

The paper's claims are measurements; this package is how the repo
measures.  It provides:

* :class:`MetricsRegistry` — labelled counters / gauges / histograms with
  snapshot, reset, and JSON / JSONL emission (:mod:`repro.obs.registry`);
* :class:`SpanTracer` — the one span tracer, for *sim-time* spans (the
  simulators' per-CU stages, rendered as a text Gantt chart or a
  utilisation summary) and *wall-clock* spans (``with obs.span(...)``,
  stamped with ``time.perf_counter``) (:mod:`repro.obs.tracer`);
* a Chrome trace-event exporter loadable in ``chrome://tracing`` and
  Perfetto (:mod:`repro.obs.chrome`);
* the process-wide switch: collection is off unless ``REPRO_OBS=1`` is
  set or :func:`enable` is called, and every instrumented hot path is
  gated on :func:`enabled` so disabled runs pay one boolean branch
  (:mod:`repro.obs.runtime`);
* report rendering for ``repro obs-report`` (:mod:`repro.obs.report`);
* run-scoped telemetry: run directories holding a manifest and, for a
  run with telemetry on, the metrics and spans the parent collected
  (procs workers' under their ``worker`` label and OS pid), written by
  the parent alone (:mod:`repro.obs.runlog` — loaded lazily);
* the one per-routine record: latency timed with laps into segments
  (``queue_wait`` / ``batch_form`` / ``infer`` / ``env_step`` /
  ``train`` / ``apply`` / ``param_sync``) that sum exactly to the
  total, the routine's step count and its wall-clock span, plus a
  critical-path extractor over recorded spans (:mod:`repro.obs.lat` —
  loaded lazily);
* cycle-attribution profiling, folded-stack export and the perf-baseline
  gate (:mod:`repro.obs.prof` — loaded lazily, because the platform
  models it analyses themselves import this package).
"""

from repro.obs.chrome import (
    chrome_trace_document,
    chrome_trace_events,
    load_chrome_trace,
    write_chrome_trace,
)
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    load_jsonl,
)
from repro.obs.report import obs_report, registry_report, run_report
from repro.obs.runtime import (
    disable,
    enable,
    enabled,
    enabled_scope,
    metrics,
    span,
    tracer,
)
from repro.obs.tracer import SIM, WALL, ObsSpan, SpanTracer

__all__ = [
    "SIM",
    "WALL",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ObsSpan",
    "SpanTracer",
    "chrome_trace_document",
    "chrome_trace_events",
    "disable",
    "enable",
    "enabled",
    "enabled_scope",
    "lat",
    "load_chrome_trace",
    "load_jsonl",
    "metrics",
    "obs_report",
    "registry_report",
    "run_report",
    "runlog",
    "span",
    "prof",
    "tracer",
    "write_chrome_trace",
]

_LAZY_SUBMODULES = ("prof", "runlog", "lat")


def __getattr__(name):
    if name in _LAZY_SUBMODULES:
        import importlib
        return importlib.import_module(f"repro.obs.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
