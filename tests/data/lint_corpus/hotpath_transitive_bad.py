# LINT-PATH: repro/core/fixture_transitive_bad.py
"""Corpus: hot-path true positives at call depth 1 and deeper.

The hot function is clean line-by-line — every hazard lives in a plain
helper it calls.  Findings anchor at the call site inside the hot
function (the first hop of the chain).
"""
import time

import numpy as np

from repro.obs import runtime as _obs
from repro.perf.hotpath import hot_path


def emit_metrics(count):
    _obs.metrics().counter("batch").inc(count)


def stamp():
    return time.perf_counter()


def scratch(n):
    return np.zeros(n)


def relay(count):
    emit_metrics(count)


@hot_path
def drain(batches):
    total = 0
    for batch in batches:
        total += len(batch)
        buf = scratch(len(batch))                  # EXPECT: hot-path
        total += int(buf[0])
    stamp()                                        # EXPECT: hot-path
    relay(total)                                   # EXPECT: hot-path
    return total
