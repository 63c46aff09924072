"""Hot-path hazard scanning for the whole-program index.

A *hazard* is anything the hot-path discipline forbids outside the
``REPRO_OBS`` gate: telemetry calls, wall-clock reads, string building,
run-log shard writes, latency-recorder calls, and per-iteration
allocation.  :func:`scan_hazards` returns the **ungated** hazards of one
function; the program index stores them per function, and the
``hot-path`` rule reports them for a hot function's own body (depth 0)
and for every helper it reaches through the call graph, without
re-parsing the callee's file.

Loop semantics are precise about what actually re-executes per
iteration:

* ``for``: the target and body — **not** the iterable (evaluated once)
  and **not** the ``else`` clause (runs once, on normal exit);
* ``while``: the test **and** body — the test re-evaluates every
  iteration; the ``else`` clause again runs once;
* comprehensions: the element and condition expressions are
  per-iteration of the comprehension itself; the first ``for``'s
  iterable is evaluated once;
* anything inside an *outer* loop is per-iteration regardless of which
  clause of an inner statement it sits in.
"""

from __future__ import annotations

import ast
import dataclasses
import typing

from repro.lint import astutil

_ALLOC_NP = {"zeros", "ones", "empty", "full", "array", "arange",
             "concatenate", "stack", "vstack", "hstack", "tile",
             "repeat", "copy", "zeros_like", "ones_like", "empty_like",
             "full_like"}
_ALLOC_BUILTINS = {"list", "dict", "set", "tuple", "bytearray"}
_ALLOC_METHODS = {"copy", "astype", "tolist", "flatten", "ravel"}
_STRING_BUILDERS = {"print"}
_WALLCLOCK = {"time", "time_ns", "monotonic", "monotonic_ns",
              "perf_counter", "perf_counter_ns"}
_COMPREHENSIONS = (ast.ListComp, ast.DictComp, ast.SetComp,
                   ast.GeneratorExp)

#: Shard-write methods, hazards when the receiver mentions shard/runlog.
RUNLOG_METHODS = frozenset({"flush", "heartbeat", "maybe_heartbeat"})
#: Latency-recorder methods, hazards when the receiver mentions ``lat``.
LATENCY_METHODS = frozenset({"lap", "finish"})


@dataclasses.dataclass(frozen=True)
class Hazard:
    """One ungated hot-path violation candidate inside a function.

    ``kind`` is ``obs`` / ``wallclock`` / ``string`` / ``runlog`` /
    ``latency`` / ``alloc``; ``subkind`` refines it (``fstring``,
    ``np``, ``builtin``, ``method``, ``comprehension``, ...).
    ``in_loop`` means the hazard re-executes per iteration of a loop
    *within the scanned function* — allocation hazards only matter in a
    loop (their own, or transitively a caller's loop around the call
    site).
    """

    kind: str
    subkind: str
    name: str
    lineno: int
    col: int
    end_lineno: typing.Optional[int]
    in_loop: bool

    def describe(self) -> str:
        """Short human-readable form for transitive-chain messages."""
        if self.kind == "obs":
            return f"ungated obs call `{self.name}(...)`"
        if self.kind == "wallclock":
            return f"ungated wall-clock read `{self.name}()`"
        if self.kind == "runlog":
            return f"ungated runlog shard write `{self.name}(...)`"
        if self.kind == "latency":
            return f"ungated latency-recorder call `{self.name}(...)`"
        if self.kind == "string":
            if self.subkind == "fstring":
                return "ungated f-string construction"
            return f"ungated `{self.name}` call"
        if self.subkind == "comprehension":
            return "per-iteration comprehension allocation"
        return f"per-iteration allocation `{self.name}`"


def loop_nodes(func: astutil.FunctionNode) -> typing.Set[int]:
    """ids of nodes in ``func`` that re-execute per loop iteration.

    See the module docstring for the clause-level semantics; nested
    function definitions are skipped (they gate themselves).
    """
    inside: typing.Set[int] = set()

    def visit(node: ast.AST, in_loop: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                continue
            if in_loop:
                inside.add(id(child))
                visit(child, True)
            elif isinstance(child, (ast.For, ast.AsyncFor)):
                _split(child, [child.target] + child.body,
                       [child.iter] + child.orelse)
            elif isinstance(child, ast.While):
                _split(child, [child.test] + child.body, child.orelse)
            elif isinstance(child, _COMPREHENSIONS):
                per_iter: typing.List[ast.AST] = []
                once: typing.List[ast.AST] = []
                for index, gen in enumerate(child.generators):
                    per_iter.append(gen.target)
                    per_iter.extend(gen.ifs)
                    (once if index == 0 else per_iter).append(gen.iter)
                if isinstance(child, ast.DictComp):
                    per_iter.extend([child.key, child.value])
                else:
                    per_iter.append(child.elt)
                _split(child, per_iter, once)
            else:
                visit(child, False)

    def _split(parent: ast.AST, per_iter: typing.Sequence[ast.AST],
               once: typing.Sequence[ast.AST]) -> None:
        for node in per_iter:
            inside.add(id(node))
            visit(node, True)
        for node in once:
            visit(node, False)

    visit(func, False)
    return inside


def scan_hazards(ctx: astutil.FileContext, func: astutil.FunctionNode,
                 loops: typing.Set[int]) -> typing.List[Hazard]:
    """All **ungated** hazards in ``func`` (gated ones are fine by
    definition and never recorded); ``loops`` is its
    :func:`loop_nodes`."""
    hazards: typing.List[Hazard] = []
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            hazard = _classify_call(ctx, func, node, loops)
            if hazard is not None:
                hazards.append(hazard)
        elif isinstance(node, ast.JoinedStr):
            if not ctx.is_gated(func, node) and not ctx.in_raise(node):
                hazards.append(_hazard("string", "fstring", "f-string",
                                       node, loops))
        elif isinstance(node, _COMPREHENSIONS):
            if not ctx.is_gated(func, node):
                hazards.append(_hazard("alloc", "comprehension",
                                       "comprehension", node, loops))
    hazards.sort(key=lambda h: (h.lineno, h.col, h.kind, h.name))
    return hazards


def _hazard(kind: str, subkind: str, name: str, node: ast.AST,
            loops: typing.Set[int]) -> Hazard:
    return Hazard(kind=kind, subkind=subkind, name=name,
                  lineno=getattr(node, "lineno", 1),
                  col=getattr(node, "col_offset", 0),
                  end_lineno=getattr(node, "end_lineno", None),
                  in_loop=id(node) in loops)


def _classify_call(ctx: astutil.FileContext, func: astutil.FunctionNode,
                   node: ast.Call, loops: typing.Set[int]
                   ) -> typing.Optional[Hazard]:
    if ctx.is_gated(func, node):
        return None
    lat_name = latency_call_name(ctx, node)
    if lat_name is not None:
        return _hazard("latency", "call", lat_name, node, loops)
    shard_name = runlog_call_name(ctx, node)
    if shard_name is not None:
        return _hazard("runlog", "call", shard_name, node, loops)
    obs_name = ctx.is_obs_call(node)
    if obs_name is not None:
        terminal = obs_name.split(".")[-1]
        if terminal == "enabled":
            return None
        if terminal == "span" and \
                isinstance(ctx.parent(node), ast.withitem):
            return None                      # self-gating `with` context
        return _hazard("obs", "call", obs_name, node, loops)
    name = astutil.dotted(node.func)
    parts = name.split(".") if name else []
    if parts and parts[0] in ctx.time_aliases and len(parts) == 2 \
            and parts[1] in _WALLCLOCK:
        return _hazard("wallclock", "call", name, node, loops)
    if not ctx.in_raise(node):
        if name in _STRING_BUILDERS or \
                (parts and parts[0] in ("logging", "log", "logger")):
            return _hazard("string", "call", name, node, loops)
        if isinstance(node.func, ast.Attribute) \
                and node.func.attr == "format" \
                and isinstance(node.func.value,
                               (ast.Constant, ast.JoinedStr)):
            return _hazard("string", "format", "str.format", node, loops)
    if len(parts) == 2 and parts[0] in ctx.numpy_aliases \
            and parts[1] in _ALLOC_NP:
        return _hazard("alloc", "np", name, node, loops)
    if name in _ALLOC_BUILTINS:
        return _hazard("alloc", "builtin", name, node, loops)
    if isinstance(node.func, ast.Attribute) \
            and node.func.attr in _ALLOC_METHODS \
            and not (parts and parts[0] in ctx.numpy_aliases):
        return _hazard("alloc", "method", "." + node.func.attr,
                       node, loops)
    return None


def latency_call_name(ctx: astutil.FileContext,
                      node: ast.Call) -> typing.Optional[str]:
    """The dotted name of a latency-recorder call, or ``None``.

    Module-rooted :mod:`repro.obs.lat` calls are always in scope;
    method calls match only when the method is in
    :data:`LATENCY_METHODS` *and* the dotted receiver mentions ``lat``
    — so an unrelated ``writer.finish()`` never trips the rule.
    """
    name = ctx.is_lat_call(node)
    if name is not None:
        return name
    if not isinstance(node.func, ast.Attribute) \
            or node.func.attr not in LATENCY_METHODS:
        return None
    name = astutil.dotted(node.func)
    if name is None:
        return None
    receiver = name.rsplit(".", 1)[0].lower()
    if "lat" in receiver:
        return name
    return None


def runlog_call_name(ctx: astutil.FileContext,
                     node: ast.Call) -> typing.Optional[str]:
    """The dotted name of a run-log shard write, or ``None``.

    Module-rooted runlog calls are always in scope; method calls
    match only when the method is in :data:`RUNLOG_METHODS` *and* the
    dotted receiver mentions ``shard`` or ``runlog`` — so a plain
    ``stream.flush()`` never trips the rule.
    """
    name = ctx.is_runlog_call(node)
    if name is not None:
        return name
    if not isinstance(node.func, ast.Attribute) \
            or node.func.attr not in RUNLOG_METHODS:
        return None
    name = astutil.dotted(node.func)
    if name is None:
        return None
    receiver = name.lower()
    if "shard" in receiver or "runlog" in receiver:
        return name
    return None
