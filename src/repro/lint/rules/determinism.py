"""Rule ``determinism``: keep the simulators replayable.

Three checks:

* **Unseeded RNG** (everywhere): calls through the module-level
  ``random.*`` or ``np.random.*`` state.  All randomness must flow
  through an explicitly seeded ``np.random.Generator`` /
  ``random.Random`` instance (``np.random.default_rng(seed)``) so runs
  and the perf gate are reproducible.
* **Wall-clock reads** (in ``wallclock-modules``, default
  ``repro/sim`` + ``repro/fpga`` + ``repro/gpu``): ``time.time()``,
  ``time.perf_counter()``, ``datetime.now()`` and friends.  Simulated
  time is the only clock inside the simulators; host-time telemetry
  belongs to the trainer/obs layers.
* **Set iteration** (in ``cycle-modules``): ``for ... in {...}`` /
  ``set(...)`` — set order is hash-randomised across processes, and the
  cycle-attribution invariant (buckets sum to total, bit-exact) depends
  on a stable accumulation order.
"""

from __future__ import annotations

import ast
import typing

from repro.lint import astutil
from repro.lint.config import path_matches_any
from repro.lint.registry import Rule, register

#: np.random.* constructors that *return seeded generators* are fine.
_NP_RANDOM_OK = {"default_rng", "Generator", "RandomState", "SeedSequence",
                 "PCG64", "MT19937", "Philox", "SFC64", "BitGenerator"}

#: random module members that do not touch the global RNG state.
_RANDOM_OK = {"Random", "SystemRandom", "getstate", "setstate"}

_WALLCLOCK_TIME = {"time", "time_ns", "monotonic", "monotonic_ns",
                   "perf_counter", "perf_counter_ns", "localtime",
                   "gmtime", "ctime"}
_WALLCLOCK_DATETIME = {"now", "utcnow", "today"}

_DEFAULT_WALLCLOCK_MODULES = ("repro/sim", "repro/fpga", "repro/gpu")
_DEFAULT_CYCLE_MODULES = ("repro/obs/prof", "repro/fpga", "repro/gpu")


@register
class DeterminismRule(Rule):
    name = "determinism"
    description = ("no unseeded global RNG, no wall clock in simulators, "
                   "no set iteration in cycle accounting")
    option_keys = ("wallclock-modules", "cycle-modules")

    def check(self, ctx: astutil.FileContext):
        wallclock_here = path_matches_any(
            ctx.relpath, self.list_option("wallclock-modules",
                                          _DEFAULT_WALLCLOCK_MODULES))
        cycle_here = path_matches_any(
            ctx.relpath, self.list_option("cycle-modules",
                                          _DEFAULT_CYCLE_MODULES))
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                yield from self._check_rng(ctx, node)
                if wallclock_here:
                    yield from self._check_wallclock(ctx, node)
            elif isinstance(node, (ast.For, ast.comprehension)) \
                    and cycle_here:
                yield from self._check_set_iteration(ctx, node)

    def _check_rng(self, ctx: astutil.FileContext, node: ast.Call):
        name = astutil.dotted(node.func)
        if not name:
            return
        parts = name.split(".")
        if parts[0] in ctx.random_aliases and len(parts) == 2 \
                and parts[1] not in _RANDOM_OK:
            yield ctx.finding(
                self, node,
                f"call to module-level `{name}()` uses the unseeded "
                "global RNG; pass a seeded `random.Random` instance "
                "instead")
            return
        if len(parts) >= 3 and parts[0] in ctx.numpy_aliases \
                and parts[1] == "random" \
                and parts[2] not in _NP_RANDOM_OK:
            yield ctx.finding(
                self, node,
                f"call to `{name}()` uses numpy's unseeded global RNG; "
                "thread a seeded `np.random.Generator` "
                "(`np.random.default_rng(seed)`) through instead")

    def _check_wallclock(self, ctx: astutil.FileContext, node: ast.Call):
        name = astutil.dotted(node.func)
        if not name:
            return
        parts = name.split(".")
        if parts[0] in ctx.time_aliases and len(parts) == 2 \
                and parts[1] in _WALLCLOCK_TIME:
            yield ctx.finding(
                self, node,
                f"wall-clock read `{name}()` inside a simulator module; "
                "simulators must use simulated time (host-time telemetry "
                "belongs in the trainer/obs layers)")
        elif parts[0] in ctx.datetime_aliases \
                and parts[-1] in _WALLCLOCK_DATETIME:
            yield ctx.finding(
                self, node,
                f"wall-clock read `{name}()` inside a simulator module")

    def _check_set_iteration(self, ctx: astutil.FileContext,
                             node: typing.Union[ast.For,
                                                ast.comprehension]):
        iterable = node.iter
        flagged = None
        if isinstance(iterable, (ast.Set, ast.SetComp)):
            flagged = "a set literal"
        elif isinstance(iterable, ast.Call) \
                and astutil.dotted(iterable.func) == "set":
            flagged = "`set(...)`"
        if flagged:
            anchor = iterable if isinstance(node, ast.comprehension) \
                else node
            yield ctx.finding(
                self, anchor,
                f"iteration over {flagged} in cycle-accounting code; "
                "set order is hash-randomised — iterate a sorted() or "
                "list/tuple/dict form so attribution order is stable")
