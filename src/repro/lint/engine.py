"""Walk files, run the selected rules, apply pragma suppressions.

Two kinds of rules run here: per-file rules (``Rule.check`` against a
:class:`~repro.lint.astutil.FileContext`) and whole-program rules
(``Rule.check_module`` against the :class:`~repro.lint.program.
ProgramIndex`, built once per run from per-file summaries).  Every run
is a full run: :func:`lint_source` and :func:`lint_paths` share one
per-file path, and a file's findings are filtered by its own pragmas.
"""

from __future__ import annotations

import ast
import dataclasses
import os
import time
import typing

from repro.lint import astutil, program as program_mod
from repro.lint.config import LintConfig, path_matches_any
from repro.lint.findings import Finding
from repro.lint.pragmas import PragmaIndex
from repro.lint.registry import Rule, all_rules, get_rule


@dataclasses.dataclass
class FileResult:
    """Per-file outcome."""

    path: str
    findings: typing.List[Finding] = dataclasses.field(default_factory=list)
    suppressed: int = 0
    skipped: bool = False
    error: typing.Optional[str] = None
    suppressed_by_rule: typing.Dict[str, int] = \
        dataclasses.field(default_factory=dict)
    warnings: typing.List[str] = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class LintRun:
    """Aggregate outcome of one lint invocation."""

    files: typing.List[FileResult] = dataclasses.field(default_factory=list)
    #: rule name (or "program-index") -> seconds spent this run.
    timing: typing.Dict[str, float] = \
        dataclasses.field(default_factory=dict)

    @property
    def findings(self) -> typing.List[Finding]:
        out: typing.List[Finding] = []
        for result in self.files:
            out.extend(result.findings)
        return sorted(out, key=Finding.sort_key)

    @property
    def errors(self) -> typing.List[FileResult]:
        return [r for r in self.files if r.error]

    @property
    def suppressed(self) -> int:
        return sum(r.suppressed for r in self.files)

    @property
    def files_checked(self) -> int:
        return sum(1 for r in self.files if not r.skipped and not r.error)

    def counts_by_rule(self) -> typing.Dict[str, int]:
        counts: typing.Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return counts

    def suppressed_by_rule(self) -> typing.Dict[str, int]:
        counts: typing.Dict[str, int] = {}
        for result in self.files:
            for rule, count in result.suppressed_by_rule.items():
                counts[rule] = counts.get(rule, 0) + count
        return counts

    @property
    def warnings(self) -> typing.List[typing.Tuple[str, str]]:
        out = []
        for result in self.files:
            for message in result.warnings:
                out.append((result.path, message))
        return out

    def find(self, finding_id: str) -> typing.Optional[Finding]:
        """The finding whose id starts with ``finding_id`` (for
        ``--why``); ambiguous prefixes return the first in sort order."""
        for finding in self.findings:
            if finding.finding_id().startswith(finding_id):
                return finding
        return None


def build_rules(config: LintConfig,
                select: typing.Optional[typing.Sequence[str]] = None
                ) -> typing.List[Rule]:
    """Instantiate the selected rules with their config options."""
    names = list(select) if select else list(config.select)
    registered = all_rules()
    rules = []
    for name in names:
        if name not in registered:
            get_rule(name)                # raises with the known-rule list
        rules.append(registered[name](config.options(name)))
    return rules


def _hot_functions(config: LintConfig) -> typing.List[str]:
    options = config.options("hot-path")
    value = options.get("functions", [])
    if isinstance(value, str):
        return [value]
    return [str(item) for item in value]


def _unknown_pragma_warnings(pragmas: PragmaIndex) -> typing.List[str]:
    known = set(all_rules())
    out = []
    for lineno, rule in pragmas.declared:
        if rule != "*" and rule not in known:
            out.append(f"pragma names unknown rule '{rule}' "
                       f"(line {lineno}); it suppresses nothing")
    return out


def _apply_rule_findings(result: FileResult, pragmas: PragmaIndex,
                         findings: typing.Iterable[Finding]) -> None:
    for finding in findings:
        if pragmas.suppresses(finding.rule, finding.line,
                              finding.end_line):
            result.suppressed += 1
            result.suppressed_by_rule[finding.rule] = \
                result.suppressed_by_rule.get(finding.rule, 0) + 1
        else:
            result.findings.append(finding)


#: One collected file: its result, plus its pragmas and parsed context
#: unless the result is already terminal (unreadable, skipped, syntax
#: error).
_Unit = typing.Tuple[FileResult, typing.Optional[PragmaIndex],
                     typing.Optional[astutil.FileContext]]


def lint_source(source: str, relpath: str, config: LintConfig,
                select: typing.Optional[typing.Sequence[str]] = None,
                ) -> FileResult:
    """Lint one in-memory source blob (the test/corpus entry point).

    Whole-program rules see a single-module program — their intra-file
    behaviour (and the corpus) works here; cross-module edges need
    :func:`lint_paths`.
    """
    unit = _parse(source, relpath.replace(os.sep, "/"),
                  _hot_functions(config))
    return _run([unit], config, select).files[0]


def lint_paths(paths: typing.Sequence[str], config: LintConfig,
               select: typing.Optional[typing.Sequence[str]] = None
               ) -> LintRun:
    """Lint every ``.py`` file under ``paths`` (files or directories)
    as one program."""
    hot = _hot_functions(config)
    units: typing.List[_Unit] = []
    for path in _collect(paths, config):
        display = _display_path(path)
        try:
            with open(path, "rb") as handle:
                source = handle.read().decode("utf-8")
        except OSError as exc:
            units.append(_terminal(display,
                                   error=f"cannot read: {exc.strerror}"))
        except UnicodeDecodeError as exc:
            units.append(_terminal(display,
                                   error=f"cannot decode: {exc.reason}"))
        else:
            units.append(_parse(source, display, hot))
    return _run(units, config, select)


def _terminal(display: str, **outcome) -> _Unit:
    return FileResult(path=display, **outcome), None, None


def _parse(source: str, display: str,
           hot: typing.Sequence[str]) -> _Unit:
    pragmas = PragmaIndex(source)
    if pragmas.skip_file:
        return _terminal(display, skipped=True)
    try:
        tree = ast.parse(source, filename=display)
    except SyntaxError as exc:
        return _terminal(display, error=f"syntax error: {exc.msg} "
                                        f"(line {exc.lineno})")
    result = FileResult(path=display,
                        warnings=_unknown_pragma_warnings(pragmas))
    return result, pragmas, astutil.FileContext(tree, display,
                                                hot_functions=hot)


def _run(units: typing.Sequence[_Unit], config: LintConfig,
         select: typing.Optional[typing.Sequence[str]]) -> LintRun:
    """Run the selected rules over the parsed units as one program."""
    rules = build_rules(config, select)
    run = LintRun(files=[result for result, _, _ in units])
    parsed = [(result, pragmas, ctx) for result, pragmas, ctx in units
              if ctx is not None]
    summaries: typing.List[program_mod.ModuleSummary] = []
    index = None
    if any(rule.requires_program for rule in rules):
        started = time.monotonic()
        summaries = [program_mod.extract_summary(ctx)
                     for _, _, ctx in parsed]
        index = program_mod.ProgramIndex(summaries)
        run.timing["program-index"] = time.monotonic() - started
    for position, (result, pragmas, ctx) in enumerate(parsed):
        for rule in rules:
            started = time.monotonic()
            findings = rule.check_module(index, summaries[position]) \
                if rule.requires_program else rule.check(ctx)
            _apply_rule_findings(result, pragmas, findings)
            run.timing[rule.name] = run.timing.get(rule.name, 0.0) \
                + time.monotonic() - started
        result.findings.sort(key=Finding.sort_key)
    return run


def _collect(paths: typing.Sequence[str],
             config: LintConfig) -> typing.List[str]:
    # (path, explicit): a file named on the command line is linted even
    # when config.exclude matches it (the CI self-check relies on this);
    # excludes only prune directory walks.
    files: typing.List[typing.Tuple[str, bool]] = []
    for path in paths:
        if os.path.isfile(path):
            files.append((path, True))
            continue
        for root, dirs, names in os.walk(path):
            dirs[:] = sorted(d for d in dirs
                             if d != "__pycache__"
                             and not d.startswith("."))
            for name in sorted(names):
                if name.endswith(".py"):
                    files.append((os.path.join(root, name), False))
    seen: typing.Set[str] = set()
    unique = []
    for path, explicit in files:
        display = _display_path(path)
        if display in seen:
            continue
        seen.add(display)
        if not explicit and config.exclude \
                and path_matches_any(display, config.exclude):
            continue
        unique.append(path)
    return unique


def _display_path(path: str) -> str:
    """Relative-to-cwd posix path when possible (stable in reports)."""
    try:
        rel = os.path.relpath(path)
    except ValueError:                      # different drive on Windows
        rel = path
    if not rel.startswith(".."):
        path = rel
    return path.replace(os.sep, "/")
