"""Chrome trace-event JSON export (``chrome://tracing`` / Perfetto).

Spans become complete events (``"ph": "X"``) with microsecond ``ts`` /
``dur`` fields.  Sim-time and wall-clock spans land in separate trace
*processes* so the two time bases never interleave on one track: Perfetto
shows "sim" lanes (CUs, DRAM channels) and "wall" lanes (trainer threads)
as distinct process groups.  Lane names become named threads via ``"M"``
metadata events.

Format reference: the Trace Event Format spec (Google), also accepted by
https://ui.perfetto.dev.
"""

from __future__ import annotations

import json
import typing

from repro.obs.tracer import SIM, WALL, ObsSpan, SpanTracer

#: Trace process ids for the two clocks.
PID_SIM = 1
PID_WALL = 2

#: Spans absorbed from worker processes carry real OS pids; any that collide
#: with the pseudo-pids above are offset by this base (real pids 1 and 2
#: belong to init/kthreadd on Linux, so collisions are container-only
#: oddities — but the offset makes the invariant unconditional).
WORKER_PID_BASE = 1 << 22

_PIDS = {SIM: PID_SIM, WALL: PID_WALL}
_PROCESS_NAMES = {PID_SIM: "sim-time", PID_WALL: "wall-clock"}


def _span_pid(span: ObsSpan) -> int:
    """Trace process id for a span: clock pseudo-pid, or the worker pid.

    The remap must be injective: a worker whose real OS pid happens to
    equal an already-remapped value (``WORKER_PID_BASE + 1``/``+ 2``)
    must not merge into the Perfetto group of the worker remapped onto
    it, so every real pid at or above the base shifts by the base too —
    low pids land in ``[BASE+1, BASE+2]``, high pids in ``[2*BASE, …)``,
    and untouched pids stay below the base.
    """
    if span.pid is None:
        return _PIDS.get(span.clock, PID_SIM)
    pid = int(span.pid)
    if pid in _PROCESS_NAMES or pid >= WORKER_PID_BASE:
        return WORKER_PID_BASE + pid
    return pid


def _lane_tids(spans: typing.Sequence[ObsSpan]
               ) -> typing.Dict[typing.Tuple[int, str], int]:
    """Assign one thread id per (pid, lane) in first-appearance order."""
    tids: typing.Dict[typing.Tuple[int, str], int] = {}
    for span in spans:
        key = (_span_pid(span), span.lane)
        if key not in tids:
            tids[key] = len([k for k in tids if k[0] == key[0]]) + 1
    return tids


def chrome_trace_events(spans: typing.Sequence[ObsSpan]
                        ) -> typing.List[typing.Dict[str, object]]:
    """Convert spans to a trace-event list (metadata events first).

    Wall-clock spans are rebased to the earliest wall start so traces
    begin near ts=0; sim spans already start near zero.  Spans carrying
    an OS ``pid`` (absorbed from workers) become their own Perfetto
    process groups named ``worker-<ospid>``, alongside the sim/wall
    pseudo-processes.
    """
    tids = _lane_tids(spans)
    names: typing.Dict[int, str] = {}
    for span in spans:
        pid = _span_pid(span)
        if pid not in names:
            names[pid] = (_PROCESS_NAMES.get(pid, str(pid))
                          if span.pid is None else f"worker-{span.pid}")
    events: typing.List[typing.Dict[str, object]] = []
    for pid in sorted({key[0] for key in tids}):
        events.append({"ph": "M", "name": "process_name", "pid": pid,
                       "tid": 0,
                       "args": {"name": names.get(pid, str(pid))}})
    for (pid, lane), tid in tids.items():
        events.append({"ph": "M", "name": "thread_name", "pid": pid,
                       "tid": tid, "args": {"name": lane}})
    wall_starts = [s.start for s in spans if s.clock == WALL]
    wall_base = min(wall_starts) if wall_starts else 0.0
    for span in spans:
        pid = _span_pid(span)
        base = wall_base if span.clock == WALL else 0.0
        event: typing.Dict[str, object] = {
            "name": span.label,
            "cat": span.clock,
            "ph": "X",
            "ts": (span.start - base) * 1e6,
            "dur": span.duration * 1e6,
            "pid": pid,
            "tid": tids[(pid, span.lane)],
        }
        if span.args:
            event["args"] = dict(span.args)
        events.append(event)
    return events


def chrome_trace_document(tracer: SpanTracer,
                          meta: typing.Optional[
                              typing.Mapping[str, object]] = None
                          ) -> typing.Dict[str, object]:
    """The full trace JSON document for one tracer."""
    doc: typing.Dict[str, object] = {
        "traceEvents": chrome_trace_events(tracer.spans),
        "displayTimeUnit": "ms",
    }
    if meta:
        doc["otherData"] = dict(meta)
    return doc


def write_chrome_trace(path: str, tracer: SpanTracer,
                       meta: typing.Optional[
                           typing.Mapping[str, object]] = None) -> int:
    """Write a Perfetto-loadable trace; returns the span count."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(chrome_trace_document(tracer, meta), fh)
    return len(tracer.spans)


def load_chrome_trace(path: str) -> typing.Dict[str, object]:
    """Read a trace document back (validation / reporting)."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
