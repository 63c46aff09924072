# LINT-PATH: repro/core/fixture_transitive_good.py
"""Corpus: hot-path true negatives through the call graph.

Every crossing here is sanctioned: the call site is obs-gated (directly,
through a cached class flag, or the callee gates internally on an
optional recorder parameter), the callee is itself ``@hot_path`` (linted
directly), or the reached allocation is one-off straight-line code.
"""
import time

import numpy as np

from repro.obs import runtime as _obs
from repro.perf.hotpath import hot_path


def emit_metrics(count):
    _obs.metrics().counter("batch").inc(count)


def scratch(n):
    return np.zeros(n)


def record(steps, lat=None):
    started = time.perf_counter_ns() if lat is not None else 0
    if lat is not None:
        lat.add_ns("train", time.perf_counter_ns() - started)
    return steps


@hot_path
def hot_leaf(value):
    return value + 1


@hot_path
def one_off_allocation(n):
    buf = scratch(n)
    return int(buf[0])


@hot_path
def gated_call_site(total):
    if _obs.enabled():
        emit_metrics(total)
    return total


@hot_path
def recorder_param_callee(steps):
    return record(steps)


@hot_path
def hot_callee_checked_directly(values):
    total = 0
    for value in values:
        total += hot_leaf(value)
    return total


class Chain:
    def __init__(self):
        self._observing = _obs.enabled()

    @hot_path
    def advance(self, op):
        if self._observing:
            emit_metrics(op)
        return op
