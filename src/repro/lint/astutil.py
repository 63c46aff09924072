"""Shared AST analysis for the lint rules.

One :class:`FileContext` is built per linted file and handed to every
rule.  It provides:

* parent links and enclosing-function lookup,
* the module's dotted name derived from its path,
* import tracking for the observability runtime (``repro.obs``) and for
  ``numpy``/``random``/``time``/``datetime`` aliases,
* obs-gate analysis: which nodes execute only when ``obs.enabled()`` (or
  a local alias of it) is true — covering ``if _obs.enabled():`` blocks,
  ``x if _obs.enabled() else y`` ternaries, ``observing =
  _obs.enabled()`` aliases, the early-return guard
  ``if not _obs.enabled(): ...; return``, and latency-recorder
  sentinels (``lat = _lat.RoutineLatency(...) if _obs.enabled() else
  None`` followed by ``if lat is not None:`` / ``timed = lat is not
  None``).  Optional recorder parameters (``lat=None``) are sentinels
  too, and ``self.X`` gates when every assignment to ``X`` in the
  enclosing class is an ``enabled()`` call,
* the set of hot-path functions (``@hot_path`` decorator or configured
  dotted names).
"""

from __future__ import annotations

import ast
import typing

from repro.lint.findings import Finding

FunctionNode = typing.Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Decorator terminal name that marks a hot-path function.
HOT_PATH_DECORATOR = "hot_path"


def dotted(node: ast.AST) -> typing.Optional[str]:
    """``"a.b.c"`` for a Name/Attribute chain, else ``None``."""
    parts: typing.List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def terminal_name(node: ast.AST) -> typing.Optional[str]:
    """The last identifier of a Name/Attribute chain (``c`` of ``a.b.c``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def root_name(node: ast.AST) -> typing.Optional[str]:
    """The first identifier of a Name/Attribute chain (``a`` of ``a.b.c``)."""
    while isinstance(node, ast.Attribute):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def module_name_for(relpath: str) -> str:
    """Dotted module name for a file path.

    Uses everything from the last ``repro`` path segment on, so
    ``src/repro/core/trainer.py`` -> ``repro.core.trainer``; paths
    without a ``repro`` segment dot their whole stem.
    """
    parts = relpath.replace("\\", "/").strip("/").split("/")
    if parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts[-1] == "__init__":
        parts = parts[:-1]
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            parts = parts[index:]
            break
    return ".".join(parts)


class FileContext:
    """Everything the rules need to know about one parsed file."""

    def __init__(self, tree: ast.Module, relpath: str,
                 hot_functions: typing.Sequence[str] = ()):
        self.tree = tree
        self.relpath = relpath.replace("\\", "/")
        self.module = module_name_for(relpath)
        self._parents: typing.Dict[int, ast.AST] = {}
        self._qualnames: typing.Dict[int, str] = {}
        self._functions: typing.List[FunctionNode] = []
        self.obs_aliases: typing.Set[str] = set()
        self.obs_direct: typing.Set[str] = set()   # from repro.obs import X
        self.runlog_aliases: typing.Set[str] = set()
        self.runlog_direct: typing.Set[str] = set()
        self.lat_aliases: typing.Set[str] = set()
        self.lat_direct: typing.Set[str] = set()   # from repro.obs.lat import X
        self.numpy_aliases: typing.Set[str] = set()
        self.random_aliases: typing.Set[str] = set()
        self.time_aliases: typing.Set[str] = set()
        self.datetime_aliases: typing.Set[str] = set()
        self._index(hot_functions)

    # -- construction ------------------------------------------------------

    def _index(self, hot_functions: typing.Sequence[str]) -> None:
        self._link_parents(self.tree, "")
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                self._record_import(node)
            elif isinstance(node, ast.ImportFrom):
                self._record_import_from(node)
        self._gate_cache: typing.Dict[int, typing.Set[int]] = {}
        self._class_gate_cache: typing.Dict[int, typing.Set[str]] = {}
        hot = set(hot_functions)
        self.hot_function_nodes: typing.List[FunctionNode] = []
        for func in self._functions:
            if self._is_hot(func, hot):
                self.hot_function_nodes.append(func)

    def _link_parents(self, node: ast.AST, qualname: str) -> None:
        for child in ast.iter_child_nodes(node):
            self._parents[id(child)] = node
            child_qual = qualname
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                child_qual = f"{qualname}.{child.name}" if qualname \
                    else child.name
                if not isinstance(child, ast.ClassDef):
                    self._functions.append(child)
                self._qualnames[id(child)] = child_qual
            self._link_parents(child, child_qual)

    def _record_import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name == "numpy":
                self.numpy_aliases.add(bound)
            elif alias.name == "random":
                self.random_aliases.add(bound)
            elif alias.name == "time":
                self.time_aliases.add(bound)
            elif alias.name == "datetime":
                self.datetime_aliases.add(bound)
            elif alias.name == "repro.obs.runlog":
                self.runlog_aliases.add(alias.asname or alias.name)
            elif alias.name == "repro.obs.lat":
                self.lat_aliases.add(alias.asname or alias.name)
            elif alias.name in ("repro.obs", "repro.obs.runtime"):
                self.obs_aliases.add(alias.asname or alias.name)

    def _record_import_from(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        for alias in node.names:
            bound = alias.asname or alias.name
            if module == "repro" and alias.name == "obs":
                self.obs_aliases.add(bound)
            elif module == "repro.obs" and alias.name == "runtime":
                self.obs_aliases.add(bound)
            elif module == "repro.obs" and alias.name == "runlog":
                self.runlog_aliases.add(bound)
            elif module == "repro.obs" and alias.name == "lat":
                self.lat_aliases.add(bound)
            elif module == "repro.obs.runlog":
                self.runlog_direct.add(bound)
            elif module == "repro.obs.lat":
                self.lat_direct.add(bound)
            elif module in ("repro.obs", "repro.obs.runtime"):
                self.obs_direct.add(bound)
            elif module == "datetime" and alias.name == "datetime":
                self.datetime_aliases.add(bound)

    def _is_hot(self, func: FunctionNode,
                configured: typing.Set[str]) -> bool:
        for decorator in func.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) \
                else decorator
            if terminal_name(target) == HOT_PATH_DECORATOR:
                return True
        return self.full_name(func) in configured

    # -- lookups -----------------------------------------------------------

    def parent(self, node: ast.AST) -> typing.Optional[ast.AST]:
        return self._parents.get(id(node))

    def qualname(self, func: FunctionNode) -> str:
        return self._qualnames.get(id(func), func.name)

    def full_name(self, func: FunctionNode) -> str:
        """``repro.core.trainer.A3CTrainer._drive``-style name."""
        return f"{self.module}.{self.qualname(func)}"

    def functions(self) -> typing.List[FunctionNode]:
        return list(self._functions)

    def enclosing_function(self, node: ast.AST
                           ) -> typing.Optional[FunctionNode]:
        current = self.parent(node)
        while current is not None:
            if isinstance(current, (ast.FunctionDef,
                                    ast.AsyncFunctionDef)):
                return current
            current = self.parent(current)
        return None

    def ancestors(self, node: ast.AST) -> typing.Iterator[ast.AST]:
        current = self.parent(node)
        while current is not None:
            yield current
            current = self.parent(current)

    def in_raise(self, node: ast.AST) -> bool:
        """Is the node part of a ``raise`` statement (cold error path)?"""
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, ast.Raise):
                return True
            if isinstance(ancestor, ast.stmt):
                return False
        return False

    def finding(self, rule, node: ast.AST, message: str) -> Finding:
        return Finding(rule=rule.name, path=self.relpath,
                       line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0),
                       message=message,
                       end_line=getattr(node, "end_lineno", None))

    # -- observability-gate analysis --------------------------------------

    def is_obs_call(self, node: ast.Call) -> typing.Optional[str]:
        """If this call is rooted at the obs runtime, its dotted form."""
        name = dotted(node.func)
        if name is None:
            return None
        root = name.split(".")[0]
        if root in self.obs_aliases:
            return name
        if name in self.obs_direct:
            return name
        return None

    def is_runlog_call(self, node: ast.Call) -> typing.Optional[str]:
        """If this call is rooted at :mod:`repro.obs.runlog`, its dotted
        form (module alias chains and names imported from the module)."""
        name = dotted(node.func)
        if name is None:
            return None
        for alias in self.runlog_aliases:
            if name == alias or name.startswith(alias + "."):
                return name
        root = name.split(".")[0]
        if root in self.runlog_direct:
            return name
        return None

    def is_lat_call(self, node: ast.Call) -> typing.Optional[str]:
        """If this call is rooted at :mod:`repro.obs.lat`, its dotted
        form (module alias chains and names imported from the module)."""
        name = dotted(node.func)
        if name is None:
            return None
        for alias in self.lat_aliases:
            if name == alias or name.startswith(alias + "."):
                return name
        root = name.split(".")[0]
        if root in self.lat_direct:
            return name
        return None

    def _is_gate_call(self, node: ast.AST) -> bool:
        if not isinstance(node, ast.Call):
            return False
        if terminal_name(node.func) != "enabled":
            return False
        root = root_name(node.func)
        return root in self.obs_aliases or "enabled" in self.obs_direct \
            or root == "enabled"

    def _gate_test_kind(self, test: ast.AST, aliases: typing.Set[str],
                        recorders: typing.FrozenSet[str] = frozenset()
                        ) -> typing.Optional[str]:
        """``"pos"`` if the test is true only while obs is enabled.

        ``recorders`` are latency-recorder sentinels (``lat`` in
        ``lat = ... if _obs.enabled() else None``): their truthiness
        and ``is not None`` / ``is None`` comparisons gate like
        ``enabled()`` itself.
        """
        if self._is_gate_call(test):
            return "pos"
        if isinstance(test, ast.Name) and \
                (test.id in aliases or test.id in recorders):
            return "pos"
        if isinstance(test, ast.Attribute):
            name = dotted(test)
            if name is not None and name in aliases:
                return "pos"
        if isinstance(test, ast.Compare) and \
                isinstance(test.left, ast.Name) and \
                test.left.id in recorders and len(test.ops) == 1 and \
                isinstance(test.comparators[0], ast.Constant) and \
                test.comparators[0].value is None:
            if isinstance(test.ops[0], ast.IsNot):
                return "pos"
            if isinstance(test.ops[0], ast.Is):
                return "neg"
            return None
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            inner = self._gate_test_kind(test.operand, aliases, recorders)
            if inner == "pos":
                return "neg"
            if inner == "neg":
                return "pos"
            return None
        if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
            for value in test.values:
                if self._gate_test_kind(value, aliases,
                                        recorders) == "pos":
                    return "pos"
        return None

    def _gate_aliases(self, func: FunctionNode) -> typing.Set[str]:
        aliases: typing.Set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and \
                    isinstance(node.value, ast.Call) and \
                    self._is_gate_call(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        aliases.add(target.id)
        aliases.update(self._class_gate_attrs(func))
        return aliases

    def _class_gate_attrs(self, func: FunctionNode) -> typing.Set[str]:
        """``self.X`` names that gate like ``enabled()`` in ``func``.

        An attribute qualifies when *every* ``self.X = ...`` assignment
        in the enclosing class — and its same-file base classes, where
        the flag usually lives (``self._observing = _obs.enabled()``
        in a base ``__init__``, tested in subclass methods) — is an
        ``enabled()`` call.  One non-gate assignment disqualifies the
        attribute: its truthiness then no longer implies obs is on."""
        node: typing.Optional[ast.AST] = func
        while node is not None and not isinstance(node, ast.ClassDef):
            node = self.parent(node)
        if node is None:
            return set()
        cached = self._class_gate_cache.get(id(node))
        if cached is not None:
            return cached
        by_name = {cd.name: cd for cd in ast.walk(self.tree)
                   if isinstance(cd, ast.ClassDef)}
        gate_assigned: typing.Set[str] = set()
        other_assigned: typing.Set[str] = set()
        seen: typing.Set[str] = set()
        stack = [node]
        while stack:
            cls = stack.pop()
            if cls.name in seen:
                continue
            seen.add(cls.name)
            self._collect_self_flags(cls, gate_assigned, other_assigned)
            for base in cls.bases:
                if isinstance(base, ast.Name) and base.id in by_name:
                    stack.append(by_name[base.id])
        attrs = {"self." + name
                 for name in gate_assigned - other_assigned}
        self._class_gate_cache[id(node)] = attrs
        return attrs

    def _collect_self_flags(self, cls: ast.ClassDef,
                            gate_assigned: typing.Set[str],
                            other_assigned: typing.Set[str]) -> None:
        for sub in ast.walk(cls):
            if not isinstance(sub, (ast.Assign, ast.AugAssign,
                                    ast.AnnAssign)):
                continue
            targets = sub.targets if isinstance(sub, ast.Assign) \
                else [sub.target]
            is_gate = isinstance(sub, ast.Assign) and \
                isinstance(sub.value, ast.Call) and \
                self._is_gate_call(sub.value)
            for target in targets:
                if isinstance(target, ast.Attribute) and \
                        isinstance(target.value, ast.Name) and \
                        target.value.id == "self":
                    (gate_assigned if is_gate
                     else other_assigned).add(target.attr)

    def _recorder_aliases(self, func: FunctionNode,
                          aliases: typing.Set[str]
                          ) -> typing.FrozenSet[str]:
        """Names bound to a latency recorder (or None while disabled).

        Covers ``lat = _lat.RoutineLatency(...)`` and the gated ternary
        ``lat = _lat.RoutineLatency(...) if _obs.enabled() else None``;
        such names become gate sentinels — see :meth:`_gate_test_kind`.

        An optional recorder *parameter* (``lat=None`` /
        ``latency=None`` — the shared-helper contract: callers pass a
        recorder only while observing) is a sentinel too.  Only those
        exact names qualify; a substring match would wrongly gate on
        ``platform=None``.
        """
        recorders: typing.Set[str] = set()
        pos_args = list(func.args.posonlyargs) + list(func.args.args)
        pos_defaults = list(func.args.defaults)
        defaulted = zip(pos_args[len(pos_args) - len(pos_defaults):],
                        pos_defaults)
        kw_defaulted = [(arg, default) for arg, default
                        in zip(func.args.kwonlyargs,
                               func.args.kw_defaults)
                        if default is not None]
        for arg, default in list(defaulted) + kw_defaulted:
            if arg.arg in ("lat", "latency") and \
                    isinstance(default, ast.Constant) and \
                    default.value is None:
                recorders.add(arg.arg)
        for node in ast.walk(func):
            if not isinstance(node, ast.Assign):
                continue
            value = node.value
            if isinstance(value, ast.IfExp) and \
                    self._gate_test_kind(value.test, aliases) == "pos" \
                    and isinstance(value.orelse, ast.Constant) \
                    and value.orelse.value is None:
                value = value.body
            if isinstance(value, ast.Call) and \
                    self.is_lat_call(value) is not None:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        recorders.add(target.id)
        # `timed = lat is not None` makes `timed` a plain gate alias.
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and \
                    self._gate_test_kind(node.value, aliases,
                                         frozenset(recorders)) == "pos":
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        aliases.add(target.id)
        return frozenset(recorders)

    def gated_nodes(self, func: FunctionNode) -> typing.Set[int]:
        """ids of nodes in ``func`` that only run while obs is enabled."""
        cached = self._gate_cache.get(id(func))
        if cached is not None:
            return cached
        aliases = self._gate_aliases(func)
        recorders = self._recorder_aliases(func, aliases)
        gated: typing.Set[int] = set()

        def mark(node: ast.AST) -> None:
            for sub in ast.walk(node):
                gated.add(id(sub))

        def walk_block(stmts: typing.Sequence[ast.stmt],
                       gated_from_here: bool) -> None:
            active = gated_from_here
            for stmt in stmts:
                if active:
                    mark(stmt)
                    continue
                if isinstance(stmt, ast.If):
                    kind = self._gate_test_kind(stmt.test, aliases,
                                                recorders)
                    if kind == "pos":
                        for body_stmt in stmt.body:
                            mark(body_stmt)
                        walk_block(stmt.orelse, False)
                        continue
                    if kind == "neg":
                        for else_stmt in stmt.orelse:
                            mark(else_stmt)
                        walk_block(stmt.body, False)
                        # `if not enabled(): ...; return` gates the rest
                        # of this block.
                        if stmt.body and not stmt.orelse and \
                                isinstance(stmt.body[-1],
                                           (ast.Return, ast.Raise,
                                            ast.Continue, ast.Break)):
                            active = True
                        continue
                # Recurse into compound statements' blocks (but not into
                # nested function definitions — they gate themselves).
                if isinstance(stmt, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    continue
                for field in ("body", "orelse", "finalbody"):
                    inner = getattr(stmt, field, None)
                    if inner:
                        walk_block(inner, False)
                for handler in getattr(stmt, "handlers", ()):
                    walk_block(handler.body, False)

        walk_block(func.body, False)
        # Ternaries: `x if _obs.enabled() else y` gates the body branch.
        for node in ast.walk(func):
            if isinstance(node, ast.IfExp):
                kind = self._gate_test_kind(node.test, aliases,
                                            recorders)
                if kind == "pos":
                    mark(node.body)
                elif kind == "neg":
                    mark(node.orelse)
        self._gate_cache[id(func)] = gated
        return gated

    def is_gated(self, func: FunctionNode, node: ast.AST) -> bool:
        return id(node) in self.gated_nodes(func)
