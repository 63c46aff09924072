"""Pragma comments: ``# repro-lint: ok[rule]`` and friends.

Three forms, all case-sensitive:

* ``# repro-lint: ok[rule1,rule2]`` — trailing on a line of code:
  suppress those rules for any finding anchored to that line (a finding
  spanning several lines is suppressed by a pragma on *any* of them).
  On a comment-only line — or a decorator line, where a trailing
  comment would otherwise govern only the ``@`` line itself — the
  pragma applies to the next code line instead (skipping further
  comment/decorator lines), so it can suppress a finding anchored to
  the decorated ``def``.
* ``# repro-lint: file-ok[rule1,rule2]`` — anywhere in the file:
  suppress those rules for the whole file.
* ``# repro-lint: skip-file`` — do not lint this file at all.

Free-form prose after the bracket is encouraged — a pragma should say
*why* the invariant does not apply::

    np.copyto(self.theta_flat(), template.flatten()) \
        # repro-lint: ok[seqlock] store not shared yet

``ok[*]`` suppresses every rule on that line.  Rule names in brackets
are validated against the registry after the run: an unknown name
(a typo'd pragma silently suppressing nothing) is reported as a
warning, never silently accepted.
"""

from __future__ import annotations

import re
import typing

_PRAGMA = re.compile(r"#\s*repro-lint:\s*(skip-file|(file-ok|ok)"
                     r"\[([^\]]*)\])")

ALL_RULES = "*"


class PragmaIndex:
    """Per-file suppression lookup built from the raw source text."""

    def __init__(self, source: str):
        self.skip_file = False
        self.file_rules: typing.Set[str] = set()
        self.line_rules: typing.Dict[int, typing.Set[str]] = {}
        #: every ``(line, rule)`` named in a pragma, for validation.
        self.declared: typing.List[typing.Tuple[int, str]] = []
        self._scan(source)

    def _scan(self, source: str) -> None:
        lines = source.splitlines()
        for lineno, line in enumerate(lines, start=1):
            match = _PRAGMA.search(line)
            if not match:
                continue
            if match.group(1) == "skip-file":
                self.skip_file = True
                continue
            rules = {part.strip() for part
                     in match.group(3).split(",") if part.strip()}
            for rule in sorted(rules):
                self.declared.append((lineno, rule))
            if match.group(2) == "file-ok":
                self.file_rules |= rules
                continue
            # A pragma on a comment-only or decorator line governs the
            # next code line (skipping further comment/decorator lines,
            # so it reaches past a decorator stack to the `def`).
            target = lineno
            if line.strip().startswith(("#", "@")):
                target = lineno + 1
                while target <= len(lines) and \
                        lines[target - 1].strip().startswith(("#", "@")):
                    target += 1
            self.line_rules.setdefault(target, set()).update(rules)

    def suppresses(self, rule: str, line: int,
                   end_line: typing.Optional[int] = None) -> bool:
        """Is ``rule`` suppressed anywhere in ``line..end_line``?"""
        if self.skip_file:
            return True
        if rule in self.file_rules or ALL_RULES in self.file_rules:
            return True
        last = end_line if end_line and end_line >= line else line
        for candidate in range(line, last + 1):
            rules = self.line_rules.get(candidate)
            if rules and (rule in rules or ALL_RULES in rules):
                return True
        return False
