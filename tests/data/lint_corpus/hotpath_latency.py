# LINT-PATH: repro/core/fixture_hot_latency.py
"""Corpus: latency-recorder calls in hot paths must be REPRO_OBS-gated."""
from repro.obs import lat as _lat
from repro.obs import runtime as _obs
from repro.perf.hotpath import hot_path


@hot_path
def sentinel_gated_recorder(values):
    lat = _lat.RoutineLatency("corpus") if _obs.enabled() else None
    total = 0.0
    for value in values:
        total += value
    if lat is not None:
        lat.lap("infer")
    timed = lat is not None
    if timed:
        lat.finish()
    return total


@hot_path
def block_gated_recorder(values):
    lat = None
    if _obs.enabled():
        lat = _lat.RoutineLatency("corpus")
    total = sum(values)
    if lat is not None:
        lat.lap("train")
        lat.finish()
    return total


@hot_path
def ungated_recorder(lat, values):
    total = sum(values)
    lat.lap("infer")  # EXPECT: hot-path
    lat.finish()  # EXPECT: hot-path
    _lat.RoutineLatency("corpus")  # EXPECT: hot-path
    return total


@hot_path
def writer_finish_is_not_a_recorder(writer, values):
    total = sum(values)
    writer.finish()
    return total
