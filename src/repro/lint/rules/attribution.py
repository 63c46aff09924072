"""Rule ``attribution``: every cycle counter feeds the profiler.

The cycle-attribution invariant (PR 2) is that buckets partition the
total: every simulated cycle / modelled nanosecond ends up in exactly
one cause bucket of :mod:`repro.obs.prof`.  A stateful cycle counter
that a simulator object accumulates *without* ever emitting an obs
metric or passing through the bucket-decomposition API is invisible to
``obs-report`` / ``repro bench`` — a coverage hole this rule closes.

In the ``modules`` option (default ``repro/fpga`` + ``repro/gpu``), an
augmented assignment onto a cycle-ish attribute of ``self``
(``self.total_cycles += ...``, ``self.busy_ns += ...``) is flagged
unless the *same function* also

* emits an obs metric behind the ``REPRO_OBS`` gate (the counter is
  mirrored into the registry the profiler reads), or
* calls into the bucket API (``fpga_stage_buckets`` /
  ``split_residual`` / a ``*record_stage*`` helper), meaning the cycles
  are decomposed downstream.

Counters that are pure test bookkeeping can be pragma'd with the reason
they never reach a report.
"""

from __future__ import annotations

import ast
import re

from repro.lint import astutil
from repro.lint.config import path_matches_any
from repro.lint.registry import Rule, register

_DEFAULT_MODULES = ("repro/fpga", "repro/gpu")

#: Attribute names treated as cycle/time accumulators.
_CYCLEISH = re.compile(r"(^|_)cycles?($|_)|(^|_)ns$|_nanos$|(^|_)ticks?$")

_BUCKET_API = re.compile(r"(fpga_stage_buckets|split_residual"
                         r"|record_stage)")


@register
class AttributionRule(Rule):
    name = "attribution"
    description = ("cycle/ns accumulators in fpga/gpu must reach the "
                   "obs.prof bucket pipeline")
    option_keys = ("modules",)

    def check(self, ctx: astutil.FileContext):
        if not path_matches_any(ctx.relpath,
                                self.list_option("modules",
                                                 _DEFAULT_MODULES)):
            return
        for func in ctx.functions():
            sites = [node for node in ast.walk(func)
                     if self._is_cycle_accumulation(node)]
            if not sites:
                continue
            if self._routes_to_prof(ctx, func):
                continue
            for node in sites:
                target = astutil.dotted(node.target) or "counter"
                yield ctx.finding(
                    self, node,
                    f"`{target} += ...` accumulates cycles in "
                    f"{ctx.qualname(func)}() without routing through "
                    "the obs.prof bucket API — emit a gated obs counter "
                    "or decompose via fpga_stage_buckets so "
                    "attribution still sums to the total")

    def _is_cycle_accumulation(self, node: ast.AST) -> bool:
        if not isinstance(node, ast.AugAssign) \
                or not isinstance(node.op, ast.Add):
            return False
        target = node.target
        if not isinstance(target, ast.Attribute):
            return False
        if not isinstance(target.value, ast.Name) \
                or target.value.id != "self":
            return False
        return bool(_CYCLEISH.search(target.attr))

    def _routes_to_prof(self, ctx: astutil.FileContext,
                        func: astutil.FunctionNode) -> bool:
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            name = astutil.dotted(node.func)
            if name and _BUCKET_API.search(name):
                return True
            if ctx.is_obs_call(node) is not None \
                    and name is not None \
                    and name.split(".")[-1] != "enabled" \
                    and ctx.is_gated(func, node):
                return True
        return False
