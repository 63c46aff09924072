"""Invariant-aware static analysis for the FA3C reproduction.

``repro.lint`` is a small AST-walking lint framework whose rules encode
the *repo-specific* invariants the test suite can only check on executed
paths: deterministic simulation (no wall clock, no unseeded RNG, no set
iteration in cycle accounting), hot-path hygiene (no allocation or
telemetry work outside the ``REPRO_OBS`` gate in ``@hot_path``
functions or the helpers they call), the seqlock/Hogwild protocol around
:class:`repro.core.shared_params.SharedParameterStore`, fp32 reduction
order in the bit-exact modules, and cycle-attribution coverage.

Generic style is ruff's job (see ``[tool.ruff]`` in ``pyproject.toml``);
this package stays invariant-only.

Entry points:

* ``repro lint [paths] --strict --select rule --format json`` (CLI)
* :func:`lint_paths` / :func:`lint_source` (library / tests)

See ``docs/static-analysis.md`` for the rule reference, the pragma
syntax (``repro-lint: ok[rule]`` comments), and how to add a rule.
"""

from repro.lint.config import LintConfig, load_config
from repro.lint.engine import FileResult, LintRun, lint_paths, lint_source
from repro.lint.findings import Finding
from repro.lint.registry import Rule, all_rules, get_rule, register

# Importing the rules package registers the built-in rules.
from repro.lint import rules as _rules  # noqa: F401  (registration side effect)

__all__ = [
    "Finding",
    "FileResult",
    "LintConfig",
    "LintRun",
    "Rule",
    "all_rules",
    "get_rule",
    "lint_paths",
    "lint_source",
    "load_config",
    "register",
]
