"""Shared resources for the discrete-event engine.

:class:`Resource` models a server pool with FIFO queuing (e.g. a compute
unit, a DRAM channel, or a PCIe link).  It records utilisation and queueing
statistics so the platform layer can report occupancy alongside throughput.

:class:`Store` is an unbounded FIFO of items with blocking ``get`` —
used to model request queues (e.g. the GA3C predictor/trainer queues).
"""

from __future__ import annotations

import collections
import typing

from repro.sim.engine import Engine
from repro.sim.events import Event


class Resource:
    """A pool of ``capacity`` identical servers with a FIFO wait queue."""

    def __init__(self, engine: Engine, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: collections.deque = collections.deque()
        # Statistics.
        self._busy_time = 0.0
        self._last_change = 0.0
        self.total_requests = 0
        self.total_wait_time = 0.0

    @property
    def in_use(self) -> int:
        """Number of servers currently held."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a server."""
        return len(self._waiters)

    def utilisation(self) -> float:
        """Fraction of server-time spent busy since the simulation start."""
        elapsed = self.engine.now
        if elapsed <= 0:
            return 0.0
        busy = self._busy_time
        busy += self._in_use * (self.engine.now - self._last_change)
        return busy / (elapsed * self.capacity)

    def _account(self) -> None:
        now = self.engine.now
        self._busy_time += self._in_use * (now - self._last_change)
        self._last_change = now

    def take(self, waiter: typing.Callable[[], None]) -> bool:
        """Take a server: the one acquire path.

        A free server is taken in place and ``take`` returns True; the
        caller continues with no heap entry.  Otherwise ``waiter`` joins
        the FIFO wait queue and ``take`` returns False.  :meth:`release`
        hands its server to the oldest waiter and calls it, and the
        waiter schedules its continuation for the release time, one heap
        hop later."""
        self.total_requests += 1
        engine = self.engine
        if self._in_use < self.capacity and not self._waiters:
            # _account() inlined: take is on the simulator's hot path.
            now = engine._now
            self._busy_time += self._in_use * (now - self._last_change)
            self._last_change = now
            self._in_use += 1
            return True
        self._waiters.append((waiter, engine._now))
        return False

    def acquire(self) -> Event:
        """Return an event that fires when a server is granted."""
        event = Event(self.engine)
        if self.take(event.succeed):
            event.succeed()
        return event

    def release(self) -> None:
        """Return a server to the pool, waking the oldest waiter if any."""
        if self._in_use == 0:
            raise RuntimeError(f"release() on idle resource {self.name!r}")
        if self._waiters:
            waiter, enqueued_at = self._waiters.popleft()
            self.total_wait_time += self.engine._now - enqueued_at
            # Server transfers directly to the waiter: in_use is unchanged.
            waiter()
        else:
            self._account()
            self._in_use -= 1


class Store:
    """An unbounded FIFO of items with blocking ``get``."""

    def __init__(self, engine: Engine, name: str = ""):
        self.engine = engine
        self.name = name
        self._items: collections.deque = collections.deque()
        self._getters: collections.deque = collections.deque()
        self.total_puts = 0

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item) -> None:
        """Add an item, waking the oldest blocked getter if any."""
        self.total_puts += 1
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Return an event whose value is the next item."""
        event = Event(self.engine)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def get_batch(self, max_items: int) -> typing.List:
        """Immediately drain up to ``max_items`` items (non-blocking)."""
        batch = []
        while self._items and len(batch) < max_items:
            batch.append(self._items.popleft())
        return batch
