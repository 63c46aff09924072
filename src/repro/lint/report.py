"""Text and JSON reporters for a lint run."""

from __future__ import annotations

import json
import typing

from repro.lint.engine import LintRun
from repro.lint.findings import Finding

#: v2: findings carry ``id`` and (interprocedural) ``chain``; the
#: document gains ``suppressed_by_rule``, per-rule ``timing_ms`` and
#: ``warnings``.
JSON_VERSION = 2


def render_text(run: LintRun, verbose: bool = False) -> str:
    """Human-readable report: one line per finding plus a summary."""
    lines: typing.List[str] = []
    for finding in run.findings:
        lines.append(f"{finding.location()}: [{finding.rule}] "
                     f"{finding.message}")
    for result in run.errors:
        lines.append(f"{result.path}: error: {result.error}")
    for path, message in run.warnings:
        lines.append(f"{path}: warning: {message}")
    counts = run.counts_by_rule()
    if counts:
        per_rule = ", ".join(f"{rule}={count}"
                             for rule, count in sorted(counts.items()))
        lines.append("")
        lines.append(f"{len(run.findings)} finding(s) "
                     f"({per_rule}) in {run.files_checked} file(s)")
    else:
        lines.append(f"ok: 0 findings in {run.files_checked} file(s)")
    if run.suppressed:
        lines.append(f"{run.suppressed} finding(s) suppressed by "
                     "pragmas")
    if verbose:
        skipped = [r.path for r in run.files if r.skipped]
        if skipped:
            lines.append("skipped: " + ", ".join(skipped))
        if run.timing:
            per_rule = ", ".join(
                f"{name}={seconds * 1000:.1f}ms" for name, seconds
                in sorted(run.timing.items()))
            lines.append(f"timing: {per_rule}")
    return "\n".join(lines)


def render_why(finding: Finding) -> str:
    """The ``--why <id>`` explainer block for one finding."""
    lines = [f"finding {finding.finding_id()}: [{finding.rule}] "
             f"{finding.location()}",
             f"  {finding.message}"]
    if finding.chain:
        lines.append("  chain:")
        for step, hop in enumerate(finding.chain, start=1):
            lines.append(f"    {step}. {hop}")
    else:
        lines.append("  (single-file finding; no call/import chain)")
    return "\n".join(lines)


def render_json(run: LintRun) -> str:
    """Machine-readable report (stable schema, see JSON_VERSION)."""
    document = {
        "version": JSON_VERSION,
        "files_checked": run.files_checked,
        "suppressed": run.suppressed,
        "suppressed_by_rule": run.suppressed_by_rule(),
        "counts": run.counts_by_rule(),
        "findings": [finding.as_dict() for finding in run.findings],
        "errors": [{"path": r.path, "error": r.error}
                   for r in run.errors],
        "warnings": [{"path": path, "message": message}
                     for path, message in run.warnings],
        "timing_ms": {name: round(seconds * 1000, 3)
                      for name, seconds in sorted(run.timing.items())},
    }
    return json.dumps(document, indent=2, sort_keys=True)
