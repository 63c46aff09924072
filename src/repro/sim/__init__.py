"""Discrete-event simulation substrate.

A small, dependency-free discrete-event engine used by the platform layer to
model contention between A3C agents sharing compute units, DRAM channels, and
PCIe links.  Every heap entry is a zero-argument callable: a triggered
event, which runs its callbacks, or a bound method of a callback chain
(:mod:`repro.platforms.chain`), which is how a simulated agent resumes
instead of as a generator process.  :meth:`Resource.take` is the one
acquire path: a free server is taken in place, a busy one queues a FIFO
waiter that the releasing call wakes.  Otherwise the design is similar
in spirit to SimPy but specialised for this project: deterministic
ordering, simulated seconds as float time, and FIFO resources with
utilisation accounting.
"""

from repro.sim.engine import Engine
from repro.sim.events import AllOf, Event, Timeout
from repro.sim.resources import Resource, Store
from repro.sim.trace import Span, Tracer

__all__ = [
    "AllOf",
    "Engine",
    "Event",
    "Resource",
    "Span",
    "Store",
    "Tracer",
    "Timeout",
]
