"""Event primitives for the discrete-event engine.

An :class:`Event` is a one-shot synchronisation object.  Waiters append
callbacks; the engine runs them, in order, when the event fires.  Events
carry an optional value that the callbacks can read.  A triggered event
is its own heap entry: the engine fires it by calling it, as it calls
every other entry.
"""

from __future__ import annotations

import heapq
import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine


class Event:
    """A one-shot event that callbacks can wait on.

    Events move through three states: *pending* (created, not scheduled),
    *triggered* (scheduled to fire at a simulated time), and *processed*
    (callbacks have run).  ``succeed``/``fail`` trigger the event at the
    current simulation time.
    """

    __slots__ = ("engine", "callbacks", "_value", "_ok", "_processed")

    def __init__(self, engine: "Engine"):
        self.engine = engine
        self.callbacks: list = []
        self._value = _PENDING
        self._ok = True
        self._processed = False

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once the event has fired and its callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self):
        """The event's payload; raises if the event has not triggered."""
        if self._value is _PENDING:
            raise RuntimeError("event value is not yet available")
        return self._value

    def __call__(self) -> None:
        """Fire: run the callbacks in order (the engine's dispatch)."""
        self._processed = True
        callbacks = self.callbacks
        self.callbacks = []
        for callback in callbacks:
            callback(self)

    def succeed(self, value=None) -> "Event":
        """Trigger the event successfully with an optional payload."""
        # Sentinel check inlined (not via .triggered): succeed() runs
        # once per scheduled event and the property adds measurable cost.
        if self._value is not _PENDING:
            raise RuntimeError("event has already been triggered")
        self._ok = True
        self._value = value
        # Engine.schedule(self) unrolled — one Python call per trigger
        # adds up across the tens of thousands of events in a run.
        engine = self.engine
        heapq.heappush(engine._queue,
                       (engine._now, engine._sequence, self))
        engine._sequence += 1
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Callbacks see ``ok`` False and the exception as ``value``;
        :meth:`Engine.run` re-raises it when the event is the one run
        until.
        """
        if self._value is not _PENDING:
            raise RuntimeError("event has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.engine.schedule(self)
        return self


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, engine: "Engine", delay: float, value=None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        # Field init is inlined (no super() chain): timeouts are the
        # most-constructed event type in the simulator by far.
        self.engine = engine
        self.callbacks = []
        self._processed = False
        self.delay = delay
        self._ok = True
        self._value = value
        heapq.heappush(engine._queue,
                       (engine._now + delay, engine._sequence, self))
        engine._sequence += 1


class AllOf(Event):
    """Fires when every child event has fired; value is the list of values."""

    __slots__ = ("events", "_pending")

    def __init__(self, engine: "Engine", events: typing.Sequence[Event]):
        super().__init__(engine)
        self.events = list(events)
        self._pending = len(self.events)
        if self._pending == 0:
            self.succeed([])
            return
        for event in self.events:
            if event.processed:
                self._on_child(event)
            else:
                event.callbacks.append(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event.value)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([e.value for e in self.events])


class _Pending:
    """Sentinel type for an event value that has not been set."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<pending>"


_PENDING = _Pending()
