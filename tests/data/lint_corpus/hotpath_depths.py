# LINT-PATH: repro/core/fixture_hotpath_depths.py
"""Corpus: one hot-path rule at depth 0 (the body) and depth 1 (a callee).

``drain`` has a hazard in its own body and reaches another through a
plain helper: two ``hot-path`` findings.  ``drain_ok`` repeats both
with an ``ok[hot-path]`` pragma on each line, and each is suppressed.
``drain_stale`` names the retired ``hot-path-transitive`` rule in its
pragma, which suppresses nothing and draws an unknown-rule warning.
"""
import time

from repro.obs import runtime as _obs
from repro.perf.hotpath import hot_path


def stamp():
    return time.perf_counter()


@hot_path
def drain(count):
    _obs.metrics().counter("drained").inc(count)  # EXPECT: hot-path
    stamp()                                       # EXPECT: hot-path
    return count


@hot_path
def drain_ok(count):
    _obs.metrics().counter("drained").inc(count)  # repro-lint: ok[hot-path] fixture
    stamp()  # repro-lint: ok[hot-path] fixture
    return count


@hot_path
def drain_stale(count):
    stamp()  # repro-lint: ok[hot-path-transitive] stale  # EXPECT: hot-path
    return count
