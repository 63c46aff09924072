"""Rule ``seed-flow``: one shared seed-derivation contract.

Per-stream seeds (one per agent, worker, env slot, eval episode, ...)
must come from the named contract functions in
:mod:`repro.backends.protocol` — ``derive_agent_seed`` and friends —
so every platform, actor model, and test agrees on stream identity.
Ad-hoc arithmetic like ``seed * 1009 + worker_id`` scattered at call
sites silently forks the contract: two sites drift independently and
replays stop lining up across backends.

Three findings, all driven by the whole-program index
(:mod:`repro.lint.program` extracts the seed sites per file, so they
resolve across modules):

* **ad-hoc argument** — seed arithmetic written inline in the argument
  of a seeding call (``env.seed(...)``, ``np.random.default_rng(...)``,
  ``random.Random(...)``, ``SeedSequence(...)``, ...), including
  inside a comprehension (``engine.seed([seed * K + i for i ...])``).
* **ad-hoc provenance** — the argument is a local name whose
  assignment is such arithmetic; the chain points at the assignment.
* **parallel contract** — the argument is a call to a function that
  itself *returns* ad-hoc seed arithmetic but is not a declared
  contract function (:data:`CONTRACT_FUNCTIONS`, by terminal name).
  The definition of such a function is also flagged in its own module,
  whether or not it is called.

Plain offsets (``seed + 1``) are not per-stream derivations and do not
trip the rule; neither does passing ``seed`` straight through, nor
calling a contract function.  The rule has no options.
"""

from __future__ import annotations

from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

#: Terminal names accepted as the shared derivation contract.
CONTRACT_FUNCTIONS = frozenset({"derive_agent_seed", "derive_policy_seed",
                                "derive_eval_seed"})
CONTRACT_HOME = "repro.backends.protocol"


@register
class SeedFlowRule(Rule):
    name = "seed-flow"
    description = ("per-stream seeds must flow through the declared "
                   "derivation contract (repro.backends.protocol), "
                   "not ad-hoc `seed * K + id` arithmetic")
    requires_program = True

    def check_module(self, program, summary):
        for func in summary.functions.values():
            yield from self._check_sites(program, summary, func)
            yield from self._check_definition(summary, func)

    def _check_sites(self, program, summary, func):
        for site in func.seed_sites:
            if site.kind == "adhoc":
                yield Finding(
                    rule=self.name, path=summary.path,
                    line=site.lineno, col=site.col,
                    end_line=site.end_lineno,
                    message=(f"ad-hoc seed arithmetic `{site.expr}` "
                             f"passed to {site.target}(); derive "
                             "per-stream seeds through the shared "
                             f"contract ({CONTRACT_HOME}."
                             "derive_agent_seed and friends) so every "
                             "platform agrees on stream identity"),
                    chain=(f"{summary.path}:{site.lineno}: "
                           f"{func.qualname}() seeds {site.target}() "
                           f"with `{site.expr}`",))
            elif site.kind == "name-adhoc":
                name = site.expr.split(" = ", 1)[0]
                yield Finding(
                    rule=self.name, path=summary.path,
                    line=site.lineno, col=site.col,
                    end_line=site.end_lineno,
                    message=(f"seed argument `{name}` of "
                             f"{site.target}() comes from ad-hoc "
                             f"arithmetic (`{site.expr}`, line "
                             f"{site.provenance_line}); use the shared "
                             f"contract in {CONTRACT_HOME} instead"),
                    chain=(f"{summary.path}:{site.provenance_line}: "
                           f"`{site.expr}`",
                           f"{summary.path}:{site.lineno}: "
                           f"{func.qualname}() seeds {site.target}() "
                           f"with `{name}`"))
            elif site.kind == "call":
                yield from self._check_call_site(program, summary,
                                                 func, site)

    def _check_call_site(self, program, summary, func, site):
        terminal = site.callee.split(".")[-1]
        if terminal in CONTRACT_FUNCTIONS:
            return
        resolved = program.resolve_name(summary.module, site.callee)
        if resolved is None:
            return                         # outside the program: trust it
        callee = program.function(resolved)
        if callee is None or not callee.adhoc_seed_return:
            return
        if callee.qualname.rsplit(".", 1)[-1] in CONTRACT_FUNCTIONS:
            return
        callee_path = program.function_path(resolved)
        yield Finding(
            rule=self.name, path=summary.path,
            line=site.lineno, col=site.col, end_line=site.end_lineno,
            message=(f"{site.callee}() feeds {site.target}() but "
                     "mints its own seed arithmetic (`return "
                     f"{callee.adhoc_detail}` at {callee_path}:"
                     f"{callee.lineno}) and is not a declared seed "
                     f"contract; reuse {CONTRACT_HOME} or move it there "
                     "and add it to seed-flow's CONTRACT_FUNCTIONS"),
            chain=(f"{summary.path}:{site.lineno}: {func.qualname}() "
                   f"seeds {site.target}() with {site.callee}(...)",
                   f"{callee_path}:{callee.lineno}: "
                   f"{callee.qualname}() returns "
                   f"`{callee.adhoc_detail}`"))

    def _check_definition(self, summary, func):
        if not func.adhoc_seed_return:
            return
        if func.qualname.rsplit(".", 1)[-1] in CONTRACT_FUNCTIONS:
            return
        yield Finding(
            rule=self.name, path=summary.path,
            line=func.lineno, col=func.col,
            message=(f"{func.qualname}() returns ad-hoc per-stream "
                     f"seed arithmetic (`{func.adhoc_detail}`), "
                     "forking the derivation contract; move it into "
                     f"{CONTRACT_HOME} and add the name to seed-flow's "
                     "CONTRACT_FUNCTIONS"),
            chain=(f"{summary.path}:{func.lineno}: {func.qualname}() "
                   f"returns `{func.adhoc_detail}`",))
