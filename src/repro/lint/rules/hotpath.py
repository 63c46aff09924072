"""Rule ``hot-path``: zero-overhead discipline in marked functions and
in everything they call.

Applies to functions carrying the :func:`repro.perf.hot_path` decorator
or listed (dotted names) in the ``functions`` option.  Mark *leaf* inner
functions (one PE reduction, one DRAM transfer, one parameter sync) —
not orchestration loops, whose functional timing would false-positive.

Inside a hot function, everything that exists only for telemetry or
debugging must sit behind the ``REPRO_OBS`` gate (``if
_obs.enabled():`` block, ``x if _obs.enabled() else y`` ternary, a
local ``observing = _obs.enabled()`` alias, or the early-return guard
``if not _obs.enabled(): ...; return``):

* **obs calls** — ``_obs.metrics()`` / ``_obs.tracer()`` chains.
  (``_obs.enabled()`` is the gate itself; ``_obs.span(...)`` used
  directly as a ``with`` context is self-gating — it returns a shared
  no-op manager while disabled — and is exempt.)
* **wall-clock reads** — ``time.perf_counter()`` etc. exist only to
  feed telemetry in a leaf hot function; hoist them behind the gate
  (``started = time.perf_counter() if _obs.enabled() else 0.0``).
* **string construction** — f-strings, ``str.format``, ``print`` /
  ``logging`` calls.  Error paths are cold: anything inside a ``raise``
  statement is exempt.
* **allocation per iteration** — calls that allocate on every pass of a
  ``for``/``while`` (``np.zeros``/``np.empty``/``np.array``/
  ``np.concatenate``/..., ``list()``/``dict()``/``set()``, ``.copy()``/
  ``.astype()``/``.tolist()``, and comprehensions).  The loop model is
  precise (see :mod:`repro.lint.hazards`): ``for`` targets+bodies and
  ``while`` tests+bodies are per-iteration; loop ``else`` clauses and
  ``for`` iterables run once and are exempt unless an outer loop
  repeats them.  Hoist the buffer out of the loop and fill it in place
  (``np.copyto``, ``out=``).  Bare ``[]``/``{}`` literals are exempt —
  resetting a handed-off list is idiomatic and cheap next to building
  its contents.
* **run-log shard writes** — anything rooted at
  :mod:`repro.obs.runlog`, and ``flush`` / ``heartbeat`` /
  ``maybe_heartbeat`` calls on objects whose name mentions ``shard`` or
  ``runlog``.  Shard flushes serialise a full registry snapshot to
  disk — strictly gated territory.  The name heuristic keeps unrelated
  ``stream.flush()`` calls out of scope.
* **latency recorders** — anything rooted at :mod:`repro.obs.lat`,
  and ``lap`` / ``finish`` calls on objects whose name mentions
  ``lat``.  The sanctioned idiom is the sentinel: ``lat =
  _lat.RoutineLatency(...) if _obs.enabled() else None`` then ``if lat
  is not None: lat.lap(...)`` — the gate analysis treats the ``is
  not None`` check as REPRO_OBS-gated.

The rule walks the whole-program call graph
(:class:`repro.lint.program.ProgramIndex`, over-approximate) breadth-first
from each hot function, up to :data:`MAX_DEPTH` call edges.  Depth 0 is
the hot function's own body: each hazard is reported at its own line.
At depths 1-3 a hazard in a plain helper is reported at the first call
site inside the hot function, with the full call chain (``chain``
entries, one hop per line — shown by ``repro lint --why <id>``) and a
message that spells out the call path.  Semantics:

* Traversal stops at callees that are themselves hot — their bodies
  are checked directly, and their own calls get their own traversal.
* Traversal skips call sites that are themselves obs-gated
  (``if observing: emit_metrics(...)``) — everything reached through
  a gated call only runs while observing, which is the discipline.
* Non-allocation hazards are violations at any depth.
* Allocation hazards count only when they are *per-iteration in
  effect*: inside a loop of the function that holds them, or reached
  through a call site that sits in a loop somewhere along the chain —
  a one-off allocation in straight-line code is fine.
"""

from __future__ import annotations

import collections
import typing

from repro.lint import hazards
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

#: Call edges followed out of a hot function.
MAX_DEPTH = 3

#: One function reached from a hot root: ``names`` is the qualname path
#: from the root, ``anchor`` the first call site inside the root.
_Reach = collections.namedtuple(
    "_Reach", "full func depth in_loop names chain anchor")


def hazard_finding_message(hazard: hazards.Hazard, label: str) -> str:
    """The depth-0 finding text for one hazard in ``label()``."""
    if hazard.kind == "latency":
        return (f"latency-recorder call `{hazard.name}(...)` in hot "
                f"path {label}() is not behind the REPRO_OBS gate; "
                "use the sentinel idiom `lat = ... if _obs.enabled() "
                "else None` and `if lat is not None:`")
    if hazard.kind == "runlog":
        return (f"runlog shard write `{hazard.name}(...)` in hot "
                f"path {label}() is not behind the REPRO_OBS gate; "
                "shard flushes serialise a full snapshot to disk — "
                "wrap them in `if _obs.enabled():`")
    if hazard.kind == "obs":
        return (f"obs call `{hazard.name}(...)` in hot path {label}() "
                "is not behind the REPRO_OBS gate; wrap it in "
                "`if _obs.enabled():`")
    if hazard.kind == "wallclock":
        return (f"wall-clock read `{hazard.name}()` in hot path "
                f"{label}() outside the REPRO_OBS gate; use `"
                f"{hazard.name}() if _obs.enabled() else 0.0` so the "
                "disabled path stays clock-free")
    if hazard.kind == "string":
        if hazard.subkind == "fstring":
            return (f"f-string built in hot path {label}() outside "
                    "the REPRO_OBS gate; hoist it behind "
                    "`if _obs.enabled():` (error paths inside "
                    "`raise` are exempt)")
        if hazard.subkind == "format":
            return (f"str.format() in hot path {label}() outside the "
                    "REPRO_OBS gate")
        return (f"`{hazard.name}` call in hot path {label}() outside "
                "the REPRO_OBS gate")
    # alloc
    if hazard.subkind == "comprehension":
        return (f"comprehension allocates per iteration inside a loop "
                f"of hot path {label}(); hoist it out or fill a "
                "preallocated buffer")
    if hazard.subkind == "np":
        return (f"`{hazard.name}` allocates per iteration inside a "
                f"loop of hot path {label}(); hoist the buffer and "
                "fill it in place (np.copyto / out=)")
    if hazard.subkind == "method":
        return (f"{hazard.name}() allocates per iteration inside a "
                f"loop of hot path {label}(); hoist it out of the loop")
    return (f"`{hazard.name}()` allocates per iteration inside a loop "
            f"of hot path {label}(); hoist it out of the loop")


@register
class HotPathRule(Rule):
    name = "hot-path"
    description = ("telemetry, string building, wall-clock reads, "
                   "runlog shard writes, and per-iteration allocation "
                   "in @hot_path functions and the helpers they call "
                   "must be behind the REPRO_OBS gate")
    requires_program = True
    option_keys = ("functions",)

    def check_module(self, program, summary):
        for func in summary.functions.values():
            if func.hot:
                yield from self._walk(program, summary, func)

    def _walk(self, program, summary, func):
        root = f"{summary.module}.{func.qualname}"
        # BFS so the first chain reaching a hazard is the shortest.
        # visited maps callee -> was it ever reached through a loop;
        # a loop-reaching revisit upgrades (alloc hazards may only
        # count on the loop path).
        visited: typing.Dict[str, bool] = {root: True}
        reported: typing.Set[typing.Tuple] = set()
        queue: typing.Deque[_Reach] = collections.deque(
            [_Reach(root, func, 0, False, (func.qualname,), (), None)])
        while queue:
            reach = queue.popleft()
            yield from self._findings(program, summary, reach, reported)
            if reach.depth < MAX_DEPTH:
                queue.extend(self._callees(program, reach, visited))

    @staticmethod
    def _callees(program, reach, visited):
        caller_module = program.function_module(reach.full)
        caller_path = program.function_path(reach.full)
        for site in reach.func.calls:
            if site.gated:
                continue          # obs-gated call: subtree gated too
            for target in program.resolve_call(
                    caller_module, reach.func.qualname, site):
                callee = program.function(target)
                if callee is None or callee.hot:
                    continue              # hot callees checked directly
                in_loop = reach.in_loop or site.in_loop
                if target in visited and (visited[target] or not in_loop):
                    continue
                visited[target] = in_loop
                hop = (f"{caller_path}:{site.lineno}: "
                       f"{reach.func.qualname}() calls "
                       f"{callee.qualname}()"
                       + (" inside a loop" if site.in_loop else ""))
                yield _Reach(target, callee, reach.depth + 1, in_loop,
                             reach.names + (callee.qualname,),
                             reach.chain + (hop,), reach.anchor or site)

    def _findings(self, program, summary, reach, reported):
        root = reach.names[0]
        path = program.function_path(reach.full)
        for hazard in reach.func.hazards:
            if hazard.kind == "alloc" and \
                    not (hazard.in_loop or reach.in_loop):
                continue           # one-off allocation is fine
            if reach.depth == 0:
                yield Finding(
                    rule=self.name, path=summary.path,
                    line=hazard.lineno, col=hazard.col,
                    end_line=hazard.end_lineno,
                    message=hazard_finding_message(hazard, root))
                continue
            key = (reach.anchor.lineno, reach.anchor.col, reach.full,
                   hazard.lineno, hazard.col, hazard.kind, hazard.name)
            if key in reported:
                continue
            reported.add(key)
            via = " -> ".join(f"{name}()" for name in reach.names)
            yield Finding(
                rule=self.name, path=summary.path,
                line=reach.anchor.lineno, col=reach.anchor.col,
                end_line=reach.anchor.end_lineno,
                message=(f"hot path {root}() reaches "
                         f"{hazard.describe()} at {path}:{hazard.lineno} "
                         f"via {via} (depth {reach.depth}); gate the "
                         "hazard, hoist it out of the call chain, or "
                         "mark the callee @hot_path to lint it "
                         "directly"),
                chain=reach.chain + (
                    f"{path}:{hazard.lineno}: {reach.func.qualname}() "
                    f"has {hazard.describe()}",))
