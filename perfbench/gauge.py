"""Machine-speed gauge: host time on a calibrated clock.

A shared machine does not run at one speed: on a 2-core cloud VM the
same fixed work can take 1.6 times as long from one second to the next,
and for tens of seconds at a stretch, with no steal time to show for it.
Wall time alone therefore spreads by 25 % or more between runs of the
same code.

The gauge times a fixed reference kernel (a Python loop, heap and dict
churn, and small fp32 GEMMs: about 1.3 ms) between the workload's
operations, at most every :data:`MIN_INTERVAL_NS`.  Every stretch of
host time between two samples is rescaled by
``NOMINAL_NS / median(nearby samples)``: the time it would have taken on
a machine where the kernel takes exactly ``NOMINAL_NS``.  The kernel's
own time counts as zero.  A change to the program moves the calibrated
time as it moves the wall time, because the kernel is the benchmark's
and not the program's; a change in machine speed moves both the workload
and the kernel, and cancels.  The kernel's mix was chosen by measurement:
a memory sweep tracked none of the slowdowns, and the heap churn made the
event-engine workload steadier than a loop and GEMMs alone.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import time
import typing

import numpy as np

#: Reference-kernel time on a quiet 2.1 GHz x86 core.
NOMINAL_NS = 1_300_000
#: Fewest nanoseconds between two samples taken by :meth:`Gauge.tick`.
MIN_INTERVAL_NS = 30_000_000
#: Samples on each side of a stretch whose median rescales it.
SMOOTHING = 5

_MATRIX = np.random.default_rng(0).standard_normal((96, 96)).astype(
    np.float32)


def reference_kernel() -> float:
    """Fixed work of the kinds the workloads do: interpreter dispatch,
    object churn through a heap and a dict, and a chain of small GEMMs."""
    total = 0
    for i in range(6000):
        total += i * i
    heap: list = []
    for i in range(1500):
        heapq.heappush(heap, ((i * 7919) % 1000, i))
    keys = {}
    while heap:
        key, i = heapq.heappop(heap)
        keys[i] = key
    product = _MATRIX
    for _ in range(6):
        product = (_MATRIX @ product) * np.float32(0.01)
    return float(product[0, 0]) + total + len(keys)


class Gauge:
    """Samples of the reference kernel, and the calibrated clock they
    define."""

    def __init__(self):
        self.starts: typing.List[int] = []
        self.ends: typing.List[int] = []

    def sample(self) -> None:
        """Time the reference kernel once."""
        started = time.perf_counter_ns()
        reference_kernel()
        self.starts.append(started)
        self.ends.append(time.perf_counter_ns())

    def tick(self) -> None:
        """Sample if :data:`MIN_INTERVAL_NS` has passed since the last."""
        if (not self.ends
                or time.perf_counter_ns() - self.ends[-1] >= MIN_INTERVAL_NS):
            self.sample()

    def hook(self, func: typing.Callable) -> typing.Callable:
        """``func`` followed by :meth:`tick`; a ``make_wrapper`` for
        :class:`perfbench.trace.Patcher`."""
        @functools.wraps(func)
        def ticking(*args, **kwargs):
            result = func(*args, **kwargs)
            self.tick()
            return result
        return ticking

    def probe_ns(self, start_ns: int, end_ns: int) -> int:
        """Nanoseconds spent in the kernel between two timestamps."""
        first = bisect.bisect_left(self.starts, start_ns)
        last = bisect.bisect_right(self.ends, end_ns)
        return sum(self.ends[i] - self.starts[i] for i in range(first, last))

    def calibrate(self, stamps_ns: typing.Sequence[int]) -> np.ndarray:
        """Calibrated seconds at each timestamp, from a common origin.

        Timestamps must not fall inside a sample; take them before
        calling :meth:`tick` or :meth:`sample`.
        """
        starts = np.asarray(self.starts, dtype=np.int64)
        ends = np.asarray(self.ends, dtype=np.int64)
        if not len(starts):
            raise ValueError("the gauge has no samples")
        durations = ends - starts
        # factors[j] rescales the stretch after sample j.
        factors = np.array([
            NOMINAL_NS / np.median(durations[max(0, j - SMOOTHING):
                                             j + SMOOTHING + 2])
            for j in range(len(durations))])
        gaps = starts[1:] - ends[:-1]
        origin = np.concatenate(([0.0], np.cumsum(gaps * factors[:-1])))
        stamps = np.asarray(stamps_ns, dtype=np.int64)
        index = np.clip(np.searchsorted(ends, stamps, side="right") - 1,
                        0, len(ends) - 1)
        next_start = np.append(starts[1:], np.iinfo(np.int64).max)[index]
        offset = np.minimum(stamps, next_start) - ends[index]
        return (origin[index] + offset * factors[index]) / 1e9

    def seconds(self, start_ns: int, end_ns: int) -> float:
        """Calibrated seconds between two timestamps."""
        start, end = self.calibrate([start_ns, end_ns])
        return float(end - start)
