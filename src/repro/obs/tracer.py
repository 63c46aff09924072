"""Span tracing over two clocks.

A :class:`SpanTracer` records both

* **sim-time** spans — ``record(lane, label, start, end)``, which the
  discrete-event simulators call for every stage a compute unit
  executes (pass a tracer to ``build_sim``); and
* **wall-clock** spans — a context manager stamped with
  ``time.perf_counter`` (monotonic; immune to NTP adjustments), or
  ``record(..., clock=WALL)`` for an interval timed elsewhere.

Both kinds carry a ``clock`` tag so the Chrome exporter can place them in
separate trace processes with sensible time scales.  For one clock at a
time, :meth:`SpanTracer.gantt` renders a text Gantt chart and
:meth:`SpanTracer.summary` the per-lane utilisation, which is how the
platform-level claims (dual-CU overlap, bandwidth sharing, pipeline
saturation) can be *seen* rather than inferred from totals.
"""

from __future__ import annotations

import contextlib
import dataclasses
import threading
import time
import typing

SIM = "sim"
WALL = "wall"


@dataclasses.dataclass(frozen=True)
class ObsSpan:
    """One traced interval on either clock."""

    lane: str
    label: str
    start: float
    end: float
    clock: str = SIM
    depth: int = 0
    args: typing.Mapping[str, object] = dataclasses.field(
        default_factory=dict)
    #: OS pid of the process that recorded the span, for spans absorbed
    #: from a worker process.  ``None`` for spans recorded locally — the
    #: Chrome exporter then groups purely by clock.
    pid: typing.Optional[int] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> typing.Dict[str, object]:
        out: typing.Dict[str, object] = {
            "lane": self.lane, "label": self.label,
            "start": self.start, "end": self.end,
            "clock": self.clock, "depth": self.depth,
            "args": dict(self.args)}
        if self.pid is not None:
            out["pid"] = self.pid
        return out

    @classmethod
    def from_dict(cls, row: typing.Mapping[str, object],
                  pid: typing.Optional[int] = None) -> "ObsSpan":
        """The inverse of :meth:`as_dict`; a ``pid`` in ``row`` wins
        over the ``pid`` argument."""
        row_pid = row.get("pid", pid)
        return cls(
            lane=str(row.get("lane", "?")), label=str(row.get("label", "?")),
            start=float(typing.cast(float, row.get("start", 0.0))),
            end=float(typing.cast(float, row.get("end", 0.0))),
            clock=str(row.get("clock", SIM)),
            depth=int(typing.cast(int, row.get("depth", 0))),
            args=dict(typing.cast(typing.Mapping[str, object],
                                  row.get("args") or {})),
            pid=int(typing.cast(int, row_pid))
            if row_pid is not None else None)


class SpanTracer:
    """Collects :class:`ObsSpan` records from sim and wall clocks."""

    def __init__(self, clock: typing.Callable[[], float]
                 = time.perf_counter):
        self._clock = clock
        self.spans: typing.List[ObsSpan] = []
        self._lock = threading.Lock()
        self._stacks = threading.local()

    def record(self, lane: str, label: str, start: float, end: float,
               clock: str = SIM, **args: object) -> None:
        """Add one completed span (sim-time unless ``clock`` says wall)."""
        if end < start:
            raise ValueError(f"span ends before it starts: {label}")
        span = ObsSpan(lane=lane, label=label, start=start, end=end,
                       clock=clock, args=args)
        with self._lock:
            self.spans.append(span)

    def snapshot(self) -> typing.List[typing.Dict[str, object]]:
        """Every span as a JSON-ready dict (see :meth:`ObsSpan.as_dict`)."""
        with self._lock:
            return [span.as_dict() for span in self.spans]

    def absorb_rows(self, rows: typing.Iterable[
            typing.Mapping[str, object]],
            pid: typing.Optional[int] = None) -> int:
        """Rebuild spans from :meth:`snapshot` rows (another process's).

        ``pid`` stamps every absorbed span with the recording process's
        OS pid so the Chrome exporter can place it in its own Perfetto
        process group; a ``pid`` already present in a row wins.  Returns
        the number of spans absorbed.
        """
        spans = [ObsSpan.from_dict(row, pid) for row in rows]
        with self._lock:
            self.spans.extend(spans)
        return len(spans)

    # -- wall-clock API ----------------------------------------------------

    def _depth_stack(self) -> typing.List[str]:
        stack = getattr(self._stacks, "stack", None)
        if stack is None:
            stack = []
            self._stacks.stack = stack
        return stack

    @contextlib.contextmanager
    def span(self, lane: str, label: str, **args: object):
        """Wall-clock span context manager; nests per thread."""
        stack = self._depth_stack()
        depth = len(stack)
        stack.append(label)
        start = self._clock()
        try:
            yield self
        finally:
            end = self._clock()
            stack.pop()
            record = ObsSpan(lane=lane, label=label, start=start,
                             end=end, clock=WALL, depth=depth, args=args)
            with self._lock:
                self.spans.append(record)

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.spans)

    def clear(self) -> None:
        with self._lock:
            self.spans.clear()

    def lanes(self, clock: typing.Optional[str] = None
              ) -> typing.List[str]:
        """Lane names in first-appearance order (optionally one clock)."""
        seen: typing.List[str] = []
        for span in self.spans:
            if clock is not None and span.clock != clock:
                continue
            if span.lane not in seen:
                seen.append(span.lane)
        return seen

    def by_clock(self, clock: str) -> typing.List[ObsSpan]:
        return [s for s in self.spans if s.clock == clock]

    def lane_busy(self, lane: str, clock: typing.Optional[str] = None
                  ) -> float:
        """Total busy time of one lane (top-level spans only, so nested
        wall spans are not double-counted)."""
        return sum(s.duration for s in self.spans
                   if s.lane == lane and s.depth == 0
                   and (clock is None or s.clock == clock))

    def window(self, clock: typing.Optional[str] = None
               ) -> typing.Tuple[float, float]:
        """(earliest start, latest end) over the selected spans."""
        spans = [s for s in self.spans
                 if clock is None or s.clock == clock]
        if not spans:
            return (0.0, 0.0)
        return (min(s.start for s in spans), max(s.end for s in spans))

    def gantt(self, width: int = 72,
              lanes: typing.Optional[typing.Sequence[str]] = None,
              start: typing.Optional[float] = None,
              end: typing.Optional[float] = None,
              clock: str = SIM) -> str:
        """A text Gantt chart of one clock's spans: one row per lane,
        one char per time bin.

        Bins draw the first letter of the busiest span's label; idle
        bins draw '.'.
        """
        spans = self.by_clock(clock)
        lanes = list(lanes or self.lanes(clock))
        lo, hi = self.window(clock)
        lo = lo if start is None else start
        hi = hi if end is None else end
        if hi <= lo:
            return "(empty trace)"
        bin_width = (hi - lo) / width
        name_width = max((len(lane) for lane in lanes), default=4)
        lines = [f"{'lane'.ljust(name_width)} |{'time ->'.ljust(width)}|"]
        for lane in lanes:
            row = []
            lane_spans = [s for s in spans if s.lane == lane]
            for index in range(width):
                b0 = lo + index * bin_width
                b1 = b0 + bin_width
                best: typing.Optional[ObsSpan] = None
                best_overlap = 0.0
                for span in lane_spans:
                    overlap = min(span.end, b1) - max(span.start, b0)
                    if overlap > best_overlap:
                        best_overlap = overlap
                        best = span
                row.append(best.label[0] if best else ".")
            lines.append(f"{lane.ljust(name_width)} |{''.join(row)}|")
        return "\n".join(lines)

    def summary(self, clock: str = SIM
                ) -> typing.List[typing.Dict[str, object]]:
        """Per-lane busy time and utilisation over one clock's window."""
        lo, hi = self.window(clock)
        total = hi - lo
        rows = []
        for lane in self.lanes(clock):
            busy = self.lane_busy(lane, clock)
            rows.append({
                "lane": lane,
                "busy": busy,
                "utilisation": busy / total if total > 0 else 0.0,
                "spans": sum(1 for s in self.spans
                             if s.lane == lane and s.clock == clock),
            })
        return rows
