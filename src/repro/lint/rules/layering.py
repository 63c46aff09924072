"""Rule ``layering``: the architecture DAG, enforced.

``docs/architecture.md`` declares the layer stack (envs -> trainers ->
backends -> platform models, with ``repro.sim`` / ``repro.obs`` /
``repro.perf`` cross-cutting below).  This rule reads the DAG from
config and flags module-scope imports that point the wrong way::

    [tool.repro-lint.layering]
    layers = [
        "envs: repro.ale, repro.envs",
        "trainers: repro.core",
        "platforms: repro.fpga, repro.gpu, repro.sim",
        "obs-writers: repro.obs.runlog, repro.obs.lat",
    ]
    forbid = [
        "trainers -> platforms",
        "envs -> trainers",
        "platforms -> obs-writers",
    ]

Each ``layers`` entry is ``name: module-prefix, module-prefix``;
``forbid`` edges name layers (or raw module prefixes) and ban every
module-scope import from a module in the left layer to one in the
right.  **Lazy (function-scoped) imports are exempt by design** — they
are the sanctioned downward-crossing idiom (a trainer resolving its
platform inside ``resolve_backend()``), precisely because they keep
the import graph acyclic and numeric-only runs light.

Import targets are matched both textually (the dotted name in the
``import`` statement) and after resolution through the program index
(so ``from repro import fpga`` cannot dodge a ``repro.fpga`` ban).

Independent of the declared edges, the rule reports **module-scope
import cycles that cross a package boundary**.  Cycles inside one
package — ``__init__`` re-export knots — are the package's own
business; a cross-package cycle means the layer diagram is lying and
import order decides what works.  Each cycle is reported once, anchored
in its alphabetically first member.
"""

from __future__ import annotations

import typing

from repro.lint.findings import Finding
from repro.lint.registry import Rule, register


def _norm_prefix(prefix: str) -> str:
    return prefix.strip().replace("/", ".").strip(".")


def _module_matches(module: str, prefix: str) -> bool:
    return module == prefix or module.startswith(prefix + ".")


@register
class LayeringRule(Rule):
    name = "layering"
    description = ("module-scope imports must follow the declared "
                   "architecture DAG; cross-package import cycles are "
                   "reported")
    requires_program = True
    option_keys = ("layers", "forbid")

    def __init__(self, options=None):
        super().__init__(options)
        self._layers: typing.Dict[str, typing.List[str]] = {}
        for entry in self.list_option("layers"):
            if ":" not in entry:
                continue
            name, _, prefixes = entry.partition(":")
            self._layers[name.strip()] = [
                _norm_prefix(p) for p in prefixes.split(",")
                if p.strip()]
        self._forbid: typing.List[typing.Tuple[str, str]] = []
        for entry in self.list_option("forbid"):
            if "->" not in entry:
                continue
            src, _, dst = entry.partition("->")
            self._forbid.append((src.strip(), dst.strip()))

    def _prefixes(self, spec: str) -> typing.List[str]:
        return self._layers.get(spec, [_norm_prefix(spec)])

    def check_module(self, program, summary):
        yield from self._forbidden_edges(program, summary)
        yield from self._cycles(program, summary)

    def _forbidden_edges(self, program, summary):
        seen: typing.Set[typing.Tuple[int, str, str]] = set()
        for edge in summary.imports:
            if edge.lazy:
                continue
            targets = {edge.target} | set(program.resolve_import(edge))
            for src_spec, dst_spec in self._forbid:
                if not any(_module_matches(summary.module, p)
                           for p in self._prefixes(src_spec)):
                    continue
                hit = next(
                    (t for t in sorted(targets)
                     if any(_module_matches(t, p)
                            for p in self._prefixes(dst_spec))
                     and not any(_module_matches(summary.module, p)
                                 for p in self._prefixes(dst_spec))),
                    None)
                if hit is None:
                    continue
                key = (edge.lineno, src_spec, dst_spec)
                if key in seen:
                    continue
                seen.add(key)
                yield Finding(
                    rule=self.name, path=summary.path,
                    line=edge.lineno, col=edge.col,
                    end_line=edge.end_lineno,
                    message=(f"`{summary.module}` (layer {src_spec}) "
                             f"imports `{hit}` (layer {dst_spec}) at "
                             "module scope; the architecture DAG "
                             "(docs/architecture.md) forbids "
                             f"{src_spec} -> {dst_spec} — make the "
                             "import lazy (function-scoped) if the "
                             "downward reference is unavoidable"),
                    chain=(f"{summary.path}:{edge.lineno}: imports "
                           f"`{hit}`",
                           f"forbidden edge {src_spec} -> {dst_spec} "
                           "([tool.repro-lint.layering].forbid)"))

    def _cycles(self, program, summary):
        for cycle in program.import_cycles():
            if summary.module != min(cycle[:-1]):
                continue                  # reported by one member only
            anchor = self._edge_to(summary, program, cycle[1])
            path_str = " -> ".join(cycle)
            chain = []
            for here, there in zip(cycle, cycle[1:]):
                mod = program.modules.get(here)
                edge = self._edge_to(mod, program, there) if mod else None
                where = f"{mod.path}:{edge.lineno}" if mod and edge \
                    else here
                chain.append(f"{where}: `{here}` imports `{there}`")
            yield Finding(
                rule=self.name, path=summary.path,
                line=anchor.lineno if anchor else 1,
                col=anchor.col if anchor else 0,
                end_line=anchor.end_lineno if anchor else None,
                message=("module-scope import cycle across packages: "
                         f"{path_str}; break it with a lazy import or "
                         "an interface module — import order now "
                         "decides which name exists first"),
                chain=tuple(chain))

    @staticmethod
    def _edge_to(summary, program, target_module: str):
        for edge in summary.imports:
            if edge.lazy:
                continue
            if target_module in program.resolve_import(edge):
                return edge
        return None
