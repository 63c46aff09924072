"""Discrete-event simulation substrate.

A small, dependency-free discrete-event engine used by the platform layer to
model contention between A3C agents sharing compute units, DRAM channels, and
PCIe links.  Events fire callbacks, and a simulated agent is a callback
chain over them (:mod:`repro.platforms.chain`) rather than a generator
process; otherwise the design is similar in spirit to SimPy but
specialised for this project: deterministic ordering, simulated seconds as
float time, and FIFO resources with utilisation accounting.
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
