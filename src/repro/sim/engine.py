"""The discrete-event simulation engine.

The engine maintains a priority queue of (time, sequence, entry) entries
and advances simulated time by popping the earliest entry and calling
it.  Every entry is a zero-argument callable: a triggered
:class:`~repro.sim.events.Event` (which runs its callbacks) or a bound
method of a callback chain, which a chain schedules for a timed resume
without an event object (see :mod:`repro.platforms.chain`).

Determinism: ties in time are broken by insertion order (a monotonically
increasing sequence number), so a simulation with the same inputs always
produces the same schedule.
"""

from __future__ import annotations

import heapq
import typing

from repro.sim.events import AllOf, Event, Timeout, _PENDING


class Engine:
    """Discrete-event simulation engine with a float-seconds clock."""

    def __init__(self):
        self._now = 0.0
        self._queue: list = []
        self._sequence = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def schedule(self, entry: typing.Callable[[], None],
                 delay: float = 0.0) -> None:
        """Queue ``entry`` (an event or any zero-argument callable) to be
        called ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        heapq.heappush(self._queue, (self._now + delay, self._sequence,
                                     entry))
        self._sequence += 1

    def timeout(self, delay: float, value=None) -> Timeout:
        """Create an event that fires after ``delay`` simulated seconds."""
        return Timeout(self, delay, value)

    def event(self) -> Event:
        """Create an untriggered event."""
        return Event(self)

    def all_of(self, events: typing.Sequence[Event]) -> AllOf:
        """Event firing after every event in ``events``."""
        return AllOf(self, events)

    def run(self, until: typing.Union[None, float, Event] = None) -> None:
        """Run until the queue drains, a deadline passes, or an event fires.

        ``until`` may be ``None`` (drain the queue), a float (simulated
        deadline in seconds), or an :class:`Event` (stop when it fires).
        """
        # The queue and heappop are held in locals — this is the
        # simulator's hottest code and the lookup overhead is measurable.
        queue = self._queue
        heappop = heapq.heappop
        if isinstance(until, Event):
            stop = until
            # stop.triggered, checked once per popped entry, inlined.
            while stop._value is _PENDING:
                if not queue:
                    raise RuntimeError("simulation queue drained before the "
                                       "awaited event fired")
                self._now, _seq, entry = heappop(queue)
                entry()
            if not stop.ok:
                raise stop.value
            return
        deadline = float("inf") if until is None else float(until)
        while queue and queue[0][0] <= deadline:
            self._now, _seq, entry = heappop(queue)
            entry()
        if until is not None:
            self._now = max(self._now, deadline)
