"""The whole-program index behind the interprocedural lint rules.

``repro.lint`` rules classically see one file at a time; the three
interprocedural rules (``hot-path``, ``seed-flow``, ``layering``) need
the *program*: which module defines which symbol, who imports whom,
and an over-approximate call graph.  This module builds that index
once per run from per-file :class:`ModuleSummary` records.  A summary
is a pure function of one file's content, and the interprocedural
rules run on summaries alone, never on a foreign file's AST.

Resolution is deliberately over-approximate (static analysis cannot be
exact about Python): bare names resolve to same-module functions or
imported bindings; ``self.m()`` / ``cls.m()`` resolve to the enclosing
class, else to the *unique* program-wide method of that name;
attribute chains through unknown receivers are dropped.  Import edges
``from pkg import name`` chase one re-export hop through ``pkg``'s own
bindings so they land on the defining submodule, not the package
``__init__``.
"""

from __future__ import annotations

import ast
import dataclasses
import typing

from repro.lint import astutil, hazards

#: Constructor terminals that take a seed as their first argument.
SEED_CONSTRUCTORS = {"default_rng", "Random", "RandomState",
                     "SeedSequence", "PCG64", "Philox", "MT19937",
                     "SFC64"}

#: Identifier fragments marking the per-stream index operand of a seed
#: derivation (``seed * K + <id>``): exact-match short names plus
#: substring-match long names.
ID_NAME_EXACT = frozenset({"i", "j", "k", "idx", "index", "id",
                           "wid", "pid"})
ID_NAME_SUBSTRINGS = ("agent", "worker", "actor", "rank", "slot",
                      "episode", "env", "thread", "proc", "replica",
                      "shard")


def _unparse(node: ast.AST) -> str:
    try:
        return ast.unparse(node)
    except Exception:                                 # pragma: no cover
        return "<expr>"


# -- summary records -------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ImportEdge:
    """One import statement (absolute dotted target)."""

    target: str
    names: typing.Tuple[str, ...]     # () for `import target`
    lineno: int
    col: int
    end_lineno: typing.Optional[int]
    lazy: bool                        # inside a function body


@dataclasses.dataclass(frozen=True)
class CallSite:
    """One call expression inside a function, by raw dotted name.

    ``gated`` means the call itself only executes while obs is enabled
    (it sits inside an obs gate) — everything it reaches is gated by
    construction, so transitive hazard traversal stops there.
    """

    name: str
    lineno: int
    col: int
    end_lineno: typing.Optional[int]
    in_loop: bool
    gated: bool = False


@dataclasses.dataclass(frozen=True)
class SeedSite:
    """One RNG seeding site whose seed expression needs provenance.

    ``kind``: ``adhoc`` (the argument is ad-hoc seed arithmetic),
    ``name-adhoc`` (a local name assigned from ad-hoc arithmetic),
    ``call`` (the seed comes from a function call — resolved against
    the program index at rule time).
    """

    kind: str
    target: str                # the seeding construct (`env.seed`, ...)
    expr: str                  # rendering of the seed expression
    callee: str                # raw callee name for kind == "call"
    lineno: int
    col: int
    end_lineno: typing.Optional[int]
    provenance_line: int = 0   # assignment line for name-adhoc


@dataclasses.dataclass
class FunctionSummary:
    """Everything the interprocedural rules need about one function."""

    qualname: str
    lineno: int
    col: int
    end_lineno: typing.Optional[int]
    hot: bool                  # carries the @hot_path decorator
    calls: typing.List[CallSite]
    hazards: typing.List[hazards.Hazard]
    seed_sites: typing.List[SeedSite]
    adhoc_seed_return: bool    # returns `seed <op> ... <op> id` arithmetic
    adhoc_detail: str = ""


@dataclasses.dataclass
class ModuleSummary:
    """The whole-program view of one file."""

    module: str
    path: str                  # display path (posix, repo-relative)
    is_package: bool           # an __init__.py
    imports: typing.List[ImportEdge]
    bindings: typing.Dict[str, str]     # local name -> dotted target
    classes: typing.Dict[str, typing.List[str]]   # class -> method names
    functions: typing.Dict[str, FunctionSummary]  # by qualname


# -- extraction ------------------------------------------------------------


def extract_summary(ctx: astutil.FileContext) -> ModuleSummary:
    """Build the :class:`ModuleSummary` for one parsed file."""
    summary = ModuleSummary(
        module=ctx.module, path=ctx.relpath,
        is_package=ctx.relpath.endswith("__init__.py"),
        imports=[], bindings={}, classes={}, functions={})
    _extract_imports(ctx, summary)
    hot_marked = {id(f) for f in ctx.hot_function_nodes}
    for func in ctx.functions():
        qualname = ctx.qualname(func)
        loops = hazards.loop_nodes(func)
        detail = _adhoc_return_detail(func)
        summary.functions[qualname] = FunctionSummary(
            qualname=qualname, lineno=func.lineno,
            col=func.col_offset, end_lineno=func.end_lineno,
            hot=id(func) in hot_marked,
            calls=_extract_calls(ctx, func, loops),
            hazards=hazards.scan_hazards(ctx, func, loops),
            seed_sites=_extract_seed_sites(func),
            adhoc_seed_return=bool(detail), adhoc_detail=detail)
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ClassDef):
            methods = sorted(
                child.name for child in node.body
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)))
            summary.classes[ctx.qualname(node)] = methods
    return summary


def _extract_imports(ctx: astutil.FileContext,
                     summary: ModuleSummary) -> None:
    package = ctx.module if summary.is_package \
        else ctx.module.rsplit(".", 1)[0] if "." in ctx.module else ""
    for node in ast.walk(ctx.tree):
        lazy = ctx.enclosing_function(node) is not None
        if isinstance(node, ast.Import):
            for alias in node.names:
                summary.imports.append(ImportEdge(
                    target=alias.name, names=(), lineno=node.lineno,
                    col=node.col_offset, end_lineno=node.end_lineno,
                    lazy=lazy))
                bound = alias.asname or alias.name.split(".")[0]
                bound_to = alias.name if alias.asname \
                    else alias.name.split(".")[0]
                summary.bindings.setdefault(bound, bound_to)
        elif isinstance(node, ast.ImportFrom):
            target = node.module or ""
            if node.level:
                base = package.split(".") if package else []
                drop = node.level - 1
                if drop:
                    base = base[:-drop] if drop <= len(base) else []
                target = ".".join(base + ([node.module]
                                          if node.module else []))
            if not target:
                continue
            names = tuple(alias.name for alias in node.names)
            summary.imports.append(ImportEdge(
                target=target, names=names, lineno=node.lineno,
                col=node.col_offset, end_lineno=node.end_lineno,
                lazy=lazy))
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                summary.bindings.setdefault(
                    bound, f"{target}.{alias.name}")


def _extract_calls(ctx: astutil.FileContext,
                   func: astutil.FunctionNode,
                   loops: typing.Set[int]
                   ) -> typing.List[CallSite]:
    """Call sites worth resolving: bare names, ``self./cls.`` methods,
    and names rooted at a local binding or class.  Chains through
    unknown receivers (``self.engine.run()``) are dropped — receiver
    types are beyond a lexical index."""
    sites = []
    for node in ast.walk(func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node is not func:
            continue
        if not isinstance(node, ast.Call):
            continue
        name = astutil.dotted(node.func)
        if name is None:
            continue
        parts = name.split(".")
        if len(parts) > 3:
            continue
        if parts[0] in ("self", "cls") and len(parts) > 2:
            continue
        sites.append(CallSite(
            name=name, lineno=node.lineno, col=node.col_offset,
            end_lineno=node.end_lineno, in_loop=id(node) in loops,
            gated=ctx.is_gated(func, node)))
    return sites


# -- seed-flow extraction --------------------------------------------------


def _ident_terminals(node: ast.AST) -> typing.List[str]:
    out = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.append(sub.attr)
    return out


def is_adhoc_seed_expr(node: ast.AST) -> bool:
    """Is ``node`` ad-hoc per-stream seed arithmetic?

    True for a ``BinOp`` tree over names/attributes/constants (no
    calls — a call gets the benefit of the doubt) combining a
    seed-ish identifier (mentions ``seed``) with a stream-index
    identifier (``agent_id``, ``worker``, ``index``, ...)."""
    if not isinstance(node, ast.BinOp):
        return False
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            return False
    idents = [ident.lower() for ident in _ident_terminals(node)]
    seedish = any("seed" in ident for ident in idents)
    idish = any(
        ident in ID_NAME_EXACT
        or any(tok in ident for tok in ID_NAME_SUBSTRINGS)
        for ident in idents if "seed" not in ident)
    return seedish and idish


def _seed_argument(node: ast.Call) -> typing.Optional[ast.AST]:
    if not node.args:
        return None
    arg = node.args[0]
    if isinstance(arg, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
        return arg.elt
    return arg


def _is_seeding_call(name: str) -> bool:
    terminal = name.split(".")[-1]
    return terminal == "seed" or terminal in SEED_CONSTRUCTORS


def _extract_seed_sites(func: astutil.FunctionNode
                        ) -> typing.List[SeedSite]:
    assigns: typing.Dict[str, ast.AST] = {}
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    assigns[target.id] = node.value
    sites = []
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        name = astutil.dotted(node.func)
        if name is None or not _is_seeding_call(name):
            continue
        arg = _seed_argument(node)
        if arg is None:
            continue
        if is_adhoc_seed_expr(arg):
            sites.append(SeedSite(
                kind="adhoc", target=name, expr=_unparse(arg),
                callee="", lineno=node.lineno, col=node.col_offset,
                end_lineno=node.end_lineno))
        elif isinstance(arg, ast.Name) and arg.id in assigns \
                and is_adhoc_seed_expr(assigns[arg.id]):
            source = assigns[arg.id]
            sites.append(SeedSite(
                kind="name-adhoc", target=name,
                expr=f"{arg.id} = {_unparse(source)}", callee="",
                lineno=node.lineno, col=node.col_offset,
                end_lineno=node.end_lineno,
                provenance_line=getattr(source, "lineno", 0)))
        elif isinstance(arg, ast.Call):
            callee = astutil.dotted(arg.func)
            if callee:
                sites.append(SeedSite(
                    kind="call", target=name, expr=_unparse(arg),
                    callee=callee, lineno=node.lineno,
                    col=node.col_offset, end_lineno=node.end_lineno))
    return sites


def _adhoc_return_detail(func: astutil.FunctionNode) -> str:
    """Non-empty description when ``func`` returns ad-hoc seed
    arithmetic (it mints a parallel seed-derivation contract)."""
    for node in ast.walk(func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node is not func:
            continue
        if isinstance(node, ast.Return) and node.value is not None \
                and is_adhoc_seed_expr(node.value):
            return _unparse(node.value)
    return ""


# -- the index -------------------------------------------------------------


class ProgramIndex:
    """Symbol table + import graph + call graph over module summaries."""

    def __init__(self, summaries: typing.Sequence[ModuleSummary]):
        self.modules: typing.Dict[str, ModuleSummary] = {
            summary.module: summary for summary in summaries}
        # full dotted function name -> (module, qualname)
        self._functions: typing.Dict[str,
                                     typing.Tuple[str, str]] = {}
        self._methods: typing.Dict[str, typing.List[str]] = {}
        for summary in self.modules.values():
            for qualname in summary.functions:
                full = f"{summary.module}.{qualname}"
                self._functions[full] = (summary.module, qualname)
                terminal = qualname.rsplit(".", 1)[-1]
                if "." in qualname:             # a method
                    self._methods.setdefault(terminal, []).append(full)
        self._module_graph: typing.Optional[
            typing.Dict[str, typing.Set[str]]] = None

    # -- symbols -----------------------------------------------------------

    def function(self, full_name: str
                 ) -> typing.Optional[FunctionSummary]:
        loc = self._functions.get(full_name)
        if loc is None:
            return None
        module, qualname = loc
        return self.modules[module].functions[qualname]

    def function_path(self, full_name: str) -> typing.Optional[str]:
        loc = self._functions.get(full_name)
        return self.modules[loc[0]].path if loc else None

    def function_module(self, full_name: str) -> typing.Optional[str]:
        loc = self._functions.get(full_name)
        return loc[0] if loc else None

    # -- name resolution ---------------------------------------------------

    def resolve_name(self, module: str, raw: str,
                     _depth: int = 0) -> typing.Optional[str]:
        """Resolve a dotted name used inside ``module`` to a program
        function's full name, chasing at most three re-export hops."""
        if _depth > 3:
            return None
        summary = self.modules.get(module)
        if summary is None:
            return None
        parts = raw.split(".")
        # Bare name: same-module function, else an imported binding.
        if len(parts) == 1:
            if raw in summary.functions:
                return f"{module}.{raw}"
            bound = summary.bindings.get(raw)
            if bound:
                return self._resolve_absolute(bound, _depth)
            return None
        # ClassName.method within this module.
        if parts[0] in summary.classes and len(parts) == 2:
            qualname = ".".join(parts)
            if qualname in summary.functions:
                return f"{module}.{qualname}"
            return None
        bound = summary.bindings.get(parts[0])
        if bound:
            return self._resolve_absolute(
                ".".join([bound] + parts[1:]), _depth)
        return None

    def _resolve_absolute(self, dotted: str,
                          depth: int) -> typing.Optional[str]:
        if dotted in self._functions:
            return dotted
        # Longest in-index module prefix, then resolve the remainder
        # inside it (covers package-__init__ re-exports).
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            prefix = ".".join(parts[:cut])
            if prefix in self.modules:
                rest = ".".join(parts[cut:])
                return self.resolve_name(prefix, rest, depth + 1)
        return None

    def resolve_call(self, module: str, caller_qualname: str,
                     site: CallSite) -> typing.List[str]:
        """Candidate full names for one call site (possibly empty)."""
        parts = site.name.split(".")
        if parts[0] in ("self", "cls") and len(parts) == 2:
            method = parts[1]
            if "." in caller_qualname:
                cls_qual = caller_qualname.rsplit(".", 1)[0]
                candidate = f"{module}.{cls_qual}.{method}"
                if candidate in self._functions:
                    return [candidate]
            matches = self._methods.get(method, [])
            return list(matches) if len(matches) == 1 else []
        resolved = self.resolve_name(module, site.name)
        return [resolved] if resolved else []

    # -- import graph ------------------------------------------------------

    def resolve_import(self, edge: ImportEdge
                       ) -> typing.List[str]:
        """In-index module names one import statement reaches.

        ``from pkg import name`` prefers the submodule ``pkg.name``;
        a plain symbol chases one re-export hop through ``pkg``'s
        bindings so the edge lands on the defining submodule."""
        out: typing.Set[str] = set()
        if not edge.names:                        # import a.b.c
            target = self._nearest_module(edge.target)
            if target:
                out.add(target)
        else:
            for name in edge.names:
                if name == "*":
                    target = self._nearest_module(edge.target)
                    if target:
                        out.add(target)
                    continue
                sub = f"{edge.target}.{name}"
                if sub in self.modules:
                    out.add(sub)
                    continue
                pkg = self.modules.get(edge.target)
                if pkg is not None:
                    bound = pkg.bindings.get(name)
                    if bound:
                        near = self._nearest_module(bound)
                        if near:
                            out.add(near)
                            continue
                target = self._nearest_module(edge.target)
                if target:
                    out.add(target)
        return sorted(out)

    def _nearest_module(self, dotted: str) -> typing.Optional[str]:
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            prefix = ".".join(parts[:cut])
            if prefix in self.modules:
                return prefix
        return None

    def module_graph(self) -> typing.Dict[str, typing.Set[str]]:
        """Module-scope import edges resolved within the index."""
        if self._module_graph is not None:
            return self._module_graph
        graph: typing.Dict[str, typing.Set[str]] = {
            name: set() for name in self.modules}
        for name, summary in self.modules.items():
            for edge in summary.imports:
                if edge.lazy:
                    continue
                for target in self.resolve_import(edge):
                    if target != name:
                        graph[name].add(target)
        self._module_graph = graph
        return graph

    # -- cycles ------------------------------------------------------------

    def import_cycles(self) -> typing.List[typing.List[str]]:
        """Module-level import cycles that cross a package boundary.

        Cycles fully contained in one package (``__init__`` re-export
        knots) are the package's own business and are not reported.
        Returns one shortest representative cycle per strongly
        connected component, as a module-name path ``[a, b, ..., a]``.
        """
        graph = self.module_graph()
        cycles = []
        for component in _sccs(graph):
            if len(component) < 2:
                member = next(iter(component))
                if member not in graph.get(member, ()):
                    continue
                component = {member}
            packages = {self._package_of(m) for m in component}
            if len(packages) < 2 and len(component) > 1:
                continue
            if len(component) == 1:
                member = next(iter(component))
                cycles.append([member, member])
                continue
            start = min(component)
            path = _shortest_cycle(graph, start, component)
            if path:
                cycles.append(path)
        cycles.sort()
        return cycles

    def _package_of(self, module: str) -> str:
        """The package a module belongs to — for an ``__init__`` module
        that is the module itself, not its parent."""
        summary = self.modules.get(module)
        if summary is not None and summary.is_package:
            return module
        return module.rsplit(".", 1)[0] if "." in module else module


def _sccs(graph: typing.Dict[str, typing.Set[str]]
          ) -> typing.List[typing.Set[str]]:
    """Tarjan's strongly connected components, iteratively."""
    index: typing.Dict[str, int] = {}
    low: typing.Dict[str, int] = {}
    on_stack: typing.Set[str] = set()
    stack: typing.List[str] = []
    out: typing.List[typing.Set[str]] = []
    counter = [0]

    def strongconnect(root: str) -> None:
        work = [(root, iter(sorted(graph.get(root, ()))))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, children = work[-1]
            advanced = False
            for child in children:
                if child not in graph:
                    continue
                if child not in index:
                    index[child] = low[child] = counter[0]
                    counter[0] += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child,
                                 iter(sorted(graph.get(child, ())))))
                    advanced = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                component = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                out.append(component)

    for node in sorted(graph):
        if node not in index:
            strongconnect(node)
    return out


def _shortest_cycle(graph: typing.Dict[str, typing.Set[str]],
                    start: str, component: typing.Set[str]
                    ) -> typing.Optional[typing.List[str]]:
    """Shortest ``start -> ... -> start`` path inside one SCC."""
    parents: typing.Dict[str, str] = {}
    frontier = [start]
    while frontier:
        next_frontier = []
        for node in frontier:
            for child in sorted(graph.get(node, ())):
                if child not in component:
                    continue
                if child == start:
                    path = [start]
                    current = node
                    while current != start:
                        path.append(current)
                        current = parents[current]
                    path.append(start)
                    path[1:-1] = path[1:-1][::-1]
                    return path
                if child not in parents:
                    parents[child] = node
                    next_frontier.append(child)
        frontier = next_frontier
    return None
