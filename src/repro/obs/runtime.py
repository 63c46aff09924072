"""The process-wide observability switch and default sinks.

Instrumented hot paths are compiled in permanently but gated on
:func:`enabled` — a single module-level boolean read — so with
``REPRO_OBS`` unset the cost of instrumentation is one branch and no
allocation.  The canonical guard::

    from repro import obs
    ...
    if obs.enabled():
        obs.metrics().counter("fpga.dram.bytes").inc(
            words * 4, channel=self.name, dir="load")

Spans go through :func:`span`, which returns a shared no-op context
manager while disabled.  ``REPRO_OBS=1`` in the environment enables
collection at import; :func:`enable` / :func:`disable` switch it at
runtime (the CLI's ``--trace`` / ``--metrics`` flags call
:func:`enable`).
"""

from __future__ import annotations

import contextlib
import os

from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import SpanTracer

_TRUTHY = {"1", "true", "yes", "on"}

_enabled: bool = os.environ.get("REPRO_OBS", "").strip().lower() in _TRUTHY
_registry = MetricsRegistry()
_tracer = SpanTracer()


def enabled() -> bool:
    """Is observability collection on?  (The hot-path guard.)"""
    return _enabled


def enable(reset: bool = False) -> None:
    """Turn collection on; optionally clear previously collected data."""
    global _enabled
    _enabled = True
    if reset:
        _registry.reset()
        _tracer.clear()


def disable() -> None:
    """Turn collection off (already-collected data is kept)."""
    global _enabled
    _enabled = False


def metrics() -> MetricsRegistry:
    """The process-wide registry (collects only while enabled — callers
    guard with :func:`enabled`)."""
    return _registry


def tracer() -> SpanTracer:
    """The process-wide span tracer."""
    return _tracer


class _NullContext:
    """Reusable no-op context manager for disabled-mode spans."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_CONTEXT = _NullContext()


def span(lane: str, label: str, **args: object):
    """A wall-clock span on the global tracer, or a no-op when disabled."""
    if not _enabled:
        return _NULL_CONTEXT
    return _tracer.span(lane, label, **args)


@contextlib.contextmanager
def enabled_scope(reset: bool = True):
    """Temporarily enable collection (tests and examples)."""
    global _enabled
    previous = _enabled
    enable(reset=reset)
    try:
        yield
    finally:
        _enabled = previous
