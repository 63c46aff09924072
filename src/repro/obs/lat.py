"""Per-routine latency decomposition and critical-path extraction.

FA3C's core argument is latency: single-inference turnaround on the
FPGA keeps actors busy, while GPU-style baselines buy throughput by
batching requests through queues that add wait time.  This module makes
that trade measurable end to end:

* :class:`RoutineLatency` — the one record of a routine: its end-to-end
  latency, timed with laps into named segments (``queue_wait``,
  ``batch_form``, ``infer``, ``env_step``, ``train``, ``apply``,
  ``param_sync``), recorded as integer nanoseconds.  Each lap charges
  the time since the previous one, so the segments tile the routine and
  sum to its total *exactly*; the tail after the last lap lands in
  ``other``.  The recorder also counts the routine's steps and, given a
  lane, traces it as one wall-clock span.
* :func:`validate_rows` — checks the invariant over snapshot rows, so
  it survives cross-process folds.
* :func:`critical_path_rows` — the longest nested-span chain per lane
  over recorded :class:`repro.obs.tracer.ObsSpan` records, reported per
  run by ``obs-report --latency``.

Everything is gated the usual way: trainers build a recorder only when
``repro.obs.enabled()`` and thread it as ``lat=None`` through the hot
path, so disabled runs pay one ``is not None`` branch and allocate
nothing.
"""

from __future__ import annotations

import time
import typing

from repro.obs import runtime as _runtime
from repro.obs.tracer import WALL, ObsSpan

#: Counter of integer nanoseconds spent per (trainer, segment).
SEGMENT_NS = "lat.segment_ns"
#: Counter of integer nanoseconds end-to-end per trainer; by
#: construction equal to the sum of that trainer's SEGMENT_NS samples.
TOTAL_NS = "lat.total_ns"
#: Histogram of per-routine segment durations in seconds (percentiles).
SEGMENT_SECONDS = "lat.segment_seconds"
#: Histogram of per-routine end-to-end durations in seconds.
ROUTINE_SECONDS = "lat.routine_seconds"
#: Counter of inference steps per trainer.
STEPS = "trainer.steps"
#: Segment name for the time after a routine's last lap.
OTHER = "other"


class LatencyError(ValueError):
    """A latency invariant does not hold (segments differ from the
    total)."""


class RoutineLatency:
    """One routine's latency, timed with laps.

    Created at routine start (``start_ns`` defaults to now).
    :meth:`lap` charges the nanoseconds since the previous lap (or the
    start) to a segment, and :meth:`finish` charges the rest to
    ``other`` and records the routine into the process registry, once.
    All arithmetic is on integer nanoseconds of ``clock``, so the
    segments sum to the total *exactly*.
    """

    __slots__ = ("trainer", "platform", "lane", "_clock", "_start_ns",
                 "_last_ns", "_segments")

    def __init__(self, trainer: str,
                 platform: typing.Optional[str] = None,
                 lane: typing.Optional[str] = None,
                 start_ns: typing.Optional[int] = None,
                 clock: typing.Callable[[], int] = time.perf_counter_ns):
        self.trainer = trainer
        self.platform = platform
        self.lane = lane
        self._clock = clock
        self._start_ns = clock() if start_ns is None else int(start_ns)
        self._last_ns = self._start_ns
        self._segments: typing.Dict[str, int] = {}

    def lap(self, segment: str) -> None:
        """Charge the time since the previous lap to ``segment``
        (accumulates over repeated laps)."""
        now = self._clock()
        self._segments[segment] = (self._segments.get(segment, 0)
                                   + now - self._last_ns)
        self._last_ns = now

    def finish(self, steps: typing.Optional[int] = None) -> int:
        """Close the routine and record it; returns the total ns.

        Charges the time since the last lap to ``other``, then records
        one ``lat.segment_ns`` increment and one ``lat.segment_seconds``
        observation per segment, plus ``lat.total_ns`` /
        ``lat.routine_seconds`` for the end-to-end latency.  ``steps``,
        when given, adds to ``trainer.steps``; a recorder with a
        ``lane`` also records the routine as one wall-clock span.
        """
        self.lap(OTHER)
        end = self._last_ns
        total = end - self._start_ns
        registry = _runtime.metrics()
        seg_ns = registry.counter(
            SEGMENT_NS, "per-routine latency by segment (ns)")
        seg_seconds = registry.histogram(
            SEGMENT_SECONDS, "per-routine segment latency (s)")
        labels: typing.Dict[str, str] = {"trainer": self.trainer}
        if self.platform is not None:
            labels["platform"] = self.platform
        for segment, ns in self._segments.items():
            seg_ns.inc(ns, segment=segment, **labels)
            seg_seconds.observe(ns * 1e-9, segment=segment, **labels)
        registry.counter(
            TOTAL_NS, "end-to-end routine latency (ns)").inc(
            total, **labels)
        registry.histogram(
            ROUTINE_SECONDS, "end-to-end routine latency (s)").observe(
            total * 1e-9, **labels)
        args: typing.Dict[str, object] = {}
        if steps is not None:
            registry.counter(STEPS, "inference steps").inc(
                steps, trainer=self.trainer)
            args["steps"] = steps
        if self.lane is not None:
            _runtime.tracer().record(self.lane, "routine",
                                     self._start_ns * 1e-9, end * 1e-9,
                                     clock=WALL, **args)
        return total


def validate_rows(rows: typing.Iterable[typing.Mapping[str, object]]
                  ) -> int:
    """Check segments-sum-to-total over snapshot rows; returns the
    number of (trainer, platform, …) groups checked.

    Works on any registry snapshot — including one folded from worker
    processes — because counters merge exactly.  Raises
    :class:`LatencyError` on a mismatch or on segment rows with no
    matching total.
    """
    def group_key(labels: typing.Mapping[str, object]) -> typing.Tuple[
            typing.Tuple[str, str], ...]:
        return tuple(sorted((str(k), str(v)) for k, v in labels.items()
                            if k != "segment"))

    segment_sums: typing.Dict[typing.Tuple, float] = {}
    totals: typing.Dict[typing.Tuple, float] = {}
    for row in rows:
        name = row.get("name")
        labels = typing.cast(typing.Mapping[str, object],
                             row.get("labels") or {})
        value = float(typing.cast(float, row.get("value", 0.0)) or 0.0)
        if name == SEGMENT_NS:
            key = group_key(labels)
            segment_sums[key] = segment_sums.get(key, 0.0) + value
        elif name == TOTAL_NS:
            totals[group_key(labels)] = value
    for key, claimed in segment_sums.items():
        if key not in totals:
            raise LatencyError(
                f"segment rows with no lat.total_ns: {dict(key)}")
        if claimed != totals[key]:
            raise LatencyError(
                f"{dict(key)}: segments sum to {claimed:.0f} ns but "
                f"lat.total_ns is {totals[key]:.0f} ns")
    for key in totals:
        if key not in segment_sums:
            raise LatencyError(
                f"lat.total_ns with no segment rows: {dict(key)}")
    return len(totals)


def critical_path_rows(
        spans: typing.Iterable[
            typing.Union[ObsSpan, typing.Mapping[str, object]]],
        top: int = 5) -> typing.List[typing.Dict[str, object]]:
    """The longest span chain per (process, clock, lane).

    Starting from the longest depth-0 span in each lane, greedily
    descends into the longest interval-contained child one depth level
    down — the critical path through the routine's nested spans.
    Returns up to ``top`` rows sorted by chain duration, each with the
    ``" > "``-joined chain of labels.  Durations are in the span's own
    clock units (seconds for ``wall`` spans, cycles for ``sim`` spans —
    the ``clock`` column disambiguates).  Deterministic: ties break on
    span start, then label.
    """
    by_lane: typing.Dict[typing.Tuple[int, str, str],
                         typing.List[ObsSpan]] = {}
    for row in spans:
        span = row if isinstance(row, ObsSpan) else ObsSpan.from_dict(row)
        key = (span.pid if span.pid is not None else -1,
               span.clock, span.lane)
        by_lane.setdefault(key, []).append(span)

    def pick(candidates: typing.List[ObsSpan]) -> ObsSpan:
        return max(candidates,
                   key=lambda s: (s.duration, -s.start, s.label))

    rows: typing.List[typing.Dict[str, object]] = []
    for (pid, clock, lane), lane_spans in sorted(
            by_lane.items(), key=lambda item: item[0]):
        roots = [s for s in lane_spans if s.depth == 0]
        if not roots:
            continue
        current = pick(roots)
        chain = [current.label]
        while True:
            children = [s for s in lane_spans
                        if s.depth == current.depth + 1
                        and s.start >= current.start
                        and s.end <= current.end]
            if not children:
                break
            current = pick(children)
            chain.append(current.label)
        root = pick(roots)
        rows.append({
            "lane": lane, "clock": clock,
            "worker": str(pid) if pid >= 0 else "-",
            "chain": " > ".join(chain),
            "duration": root.duration,
            "depth": len(chain)})
    rows.sort(key=lambda r: (-typing.cast(float, r["duration"]),
                             str(r["lane"])))
    return rows[:top]
