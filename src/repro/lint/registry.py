"""The rule registry.

A rule is a class with a unique ``name``, a one-line ``description``,
and a ``check(ctx)`` generator yielding
:class:`~repro.lint.findings.Finding`.  Register with::

    from repro.lint.registry import Rule, register

    @register
    class MyRule(Rule):
        name = "my-rule"
        description = "what invariant this protects"

        def check(self, ctx):
            ...
            yield ctx.finding(self, node, "message")

A rule lists the ``[tool.repro-lint.<name>]`` keys it reads in
``option_keys`` and receives their values as ``self.options``; any
other key is a configuration error.  ``ctx`` is a
:class:`~repro.lint.astutil.FileContext`.
"""

from __future__ import annotations

import typing

from repro.lint.findings import Finding


class Rule:
    """Base class; subclasses override :attr:`name` and :meth:`check`.

    Interprocedural rules set :attr:`requires_program` and override
    :meth:`check_module` instead: they run once per module against the
    whole-program index (:class:`repro.lint.program.ProgramIndex`) and
    must anchor every finding in *that* module, whose pragmas decide
    its suppression.
    """

    name: str = ""
    description: str = ""
    #: True for whole-program rules (they implement check_module).
    requires_program: bool = False
    #: The option keys this rule's config table may set.
    option_keys: typing.Tuple[str, ...] = ()

    def __init__(self, options: typing.Optional[typing.Dict[str, object]]
                 = None):
        self.options = options or {}

    def list_option(self, key: str,
                    default: typing.Sequence[str] = ()
                    ) -> typing.List[str]:
        value = self.options.get(key)
        if value is None:
            return list(default)
        if isinstance(value, str):
            return [value]
        return [str(item) for item in value]

    def check(self, ctx) -> typing.Iterator[Finding]:
        raise NotImplementedError
        yield  # pragma: no cover

    def check_module(self, program, summary
                     ) -> typing.Iterator[Finding]:
        """Whole-program pass for one module (``requires_program``
        rules only).  Findings must be anchored in ``summary.path``."""
        raise NotImplementedError
        yield  # pragma: no cover


_RULES: typing.Dict[str, typing.Type[Rule]] = {}


def register(rule_class: typing.Type[Rule]) -> typing.Type[Rule]:
    """Class decorator adding a rule to the registry."""
    if not rule_class.name:
        raise ValueError(f"rule {rule_class.__name__} has no name")
    if _RULES.get(rule_class.name) not in (None, rule_class):
        raise ValueError(f"duplicate rule name {rule_class.name!r}")
    _RULES[rule_class.name] = rule_class
    return rule_class


def all_rules() -> typing.Dict[str, typing.Type[Rule]]:
    """Name -> class for every registered rule (sorted by name)."""
    return {name: _RULES[name] for name in sorted(_RULES)}


def get_rule(name: str) -> typing.Type[Rule]:
    try:
        return _RULES[name]
    except KeyError:
        known = ", ".join(sorted(_RULES)) or "(none)"
        raise KeyError(f"unknown lint rule {name!r}; known: {known}") \
            from None
