"""Outside-in tracing: wrap public functions of each layer, then restore them.

Nothing here edits the program.  :class:`Patcher` swaps attributes on
classes, instances and modules for timing wrappers and puts every
original back on exit, so a traced run cannot leak into the untraced
runs that follow it.  :class:`Tracer` turns the wrapped calls into
per-layer counts and busy times.

Spans come in two kinds:

* *attributing* spans split the timed window into disjoint parts.  Each
  one's busy time is its self time: its duration minus the attributing
  spans nested in it.  What no attributing span covers is the window's
  own self time, reported as ``core.other_s``.  The parts therefore sum
  to the window exactly, in integer nanoseconds, and :meth:`Tracer.close`
  checks that they do.
* *detail* spans (a game's own ``step``, one network layer, the RMSProp
  step) run inside an attributing span and report inclusive busy time.
  They take no part in the decomposition.

A span that opens while a span of the same name is still open would be
counted twice, so it raises :class:`TraceError` instead.
"""

from __future__ import annotations

import collections
import functools
import inspect
import sys
import time
import typing


class TraceError(RuntimeError):
    """The traced decomposition is inconsistent (a double count)."""


_MISSING = object()


class Patcher:
    """Replace attributes with wrappers; restore them all on exit."""

    def __init__(self):
        self._undo: typing.List[typing.Tuple[object, str, object]] = []

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    def wrap(self, owner, attr: str,
             make_wrapper: typing.Callable[[typing.Callable],
                                           typing.Callable]) -> None:
        """Set ``owner.attr`` to ``make_wrapper(current value)``.

        ``owner`` may be a class (the wrapper receives the plain
        function), an instance (it receives the bound method) or a
        module.  An attribute the owner only inherits is shadowed and
        later deleted again, not copied.
        """
        own = vars(owner).get(attr, _MISSING)
        current = getattr(owner, attr)
        self._undo.append((owner, attr, own))
        setattr(owner, attr, make_wrapper(current))

    def wrap_function(self, func: typing.Callable,
                      make_wrapper: typing.Callable[[typing.Callable],
                                                    typing.Callable]) -> None:
        """Wrap ``func`` in every loaded ``repro`` module that binds it.

        A module-level function is called through the name each
        importing module bound, so each binding is wrapped.  Bindings
        that already carry a wrapper of ``func`` are wrapped again.
        """
        name = func.__name__
        modules = [module
                   for module_name, module in sorted(sys.modules.items())
                   if module_name.split(".")[0] == "repro"
                   and inspect.unwrap(getattr(module, name, None)) is func]
        if not modules:
            raise TraceError(f"no loaded repro module binds {name}")
        for module in modules:
            self.wrap(module, name, make_wrapper)

    def restore(self) -> None:
        """Put back every original, newest patch first."""
        while self._undo:
            owner, attr, own = self._undo.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)


class Tracer:
    """Per-layer counts and busy times over one timed window."""

    def __init__(self):
        self.calls: typing.Counter[str] = collections.Counter()
        #: Inclusive duration of every span, per name.
        self.busy_ns: typing.Counter[str] = collections.Counter()
        #: Self time of attributing spans, per name.
        self.self_ns: typing.Counter[str] = collections.Counter()
        #: Batch rows seen by spans that report a batch size.
        self.rows: typing.Counter[str] = collections.Counter()
        self.window_ns = 0
        self.other_ns = 0
        # Open attributing spans, the window first; each entry is the
        # nanoseconds its attributing children have covered so far.
        self._children: typing.List[int] = []
        self._open: typing.Set[str] = set()
        self._started = 0

    def open(self, started_ns: int) -> None:
        """Start the timed window at ``started_ns``."""
        if self._children:
            raise TraceError("window already open")
        self._children = [0]
        self._started = started_ns

    def close(self, ended_ns: int, excluded_ns: int = 0) -> None:
        """End the window and check that its parts sum to it.

        ``excluded_ns`` is time in the window that belongs to none of its
        parts: the gauge's samples, taken outside every span.
        """
        if len(self._children) != 1 or self._open:
            raise TraceError(f"spans still open at window close: "
                             f"{sorted(self._open)}")
        self.window_ns = ended_ns - self._started - excluded_ns
        self.other_ns = self.window_ns - self._children.pop()
        negative = sorted(name for name, value in self.self_ns.items()
                          if value < 0)
        if self.other_ns < 0 or negative:
            raise TraceError(f"nested spans double-counted: negative self "
                             f"time in {negative or ['window']}")
        total = sum(self.self_ns.values()) + self.other_ns
        if total != self.window_ns:
            raise TraceError(f"layer busy times sum to {total} ns, the "
                             f"window is {self.window_ns} ns")

    def wrapper(self, name: typing.Union[str, typing.Callable[..., str]],
                attributing: bool = False, top_level_only: bool = False,
                batch_arg: typing.Optional[int] = None
                ) -> typing.Callable[[typing.Callable], typing.Callable]:
        """A ``make_wrapper`` for :class:`Patcher` that records spans.

        ``name`` is the span name, or a function of the call's
        positional arguments that returns it (per-layer spans take the
        layer's own name).  ``top_level_only`` calls straight through
        when another attributing span is open, so an inner call is not
        mistaken for an outer one.  ``batch_arg`` names the positional
        argument whose leading dimension is the call's batch size.
        """
        tracer = self
        perf_ns = time.perf_counter_ns

        def make(func):
            @functools.wraps(func)
            def traced(*args, **kwargs):
                children = tracer._children
                if top_level_only and len(children) != 1:
                    return func(*args, **kwargs)
                span = name(*args) if callable(name) else name
                if span in tracer._open:
                    raise TraceError(f"span {span!r} opened inside itself; "
                                     f"its time would be counted twice")
                tracer._open.add(span)
                if attributing:
                    children.append(0)
                started = perf_ns()
                try:
                    return func(*args, **kwargs)
                finally:
                    elapsed = perf_ns() - started
                    tracer._open.discard(span)
                    tracer.calls[span] += 1
                    tracer.busy_ns[span] += elapsed
                    if attributing:
                        tracer.self_ns[span] += elapsed - children.pop()
                        children[-1] += elapsed
                    if batch_arg is not None:
                        tracer.rows[span] += len(args[batch_arg])
            return traced
        return make

    def busy_s(self, name: str) -> float:
        """Busy seconds of ``name``: self time if attributing."""
        if name in self.self_ns:
            return self.self_ns[name] / 1e9
        return self.busy_ns[name] / 1e9

    def share(self, name: str) -> float:
        """Self time of attributing span ``name`` over the window."""
        if not self.window_ns:
            return 0.0
        return self.self_ns[name] / self.window_ns

    def batch_mean(self, name: str) -> float:
        calls = self.calls[name]
        return self.rows[name] / calls if calls else 0.0
