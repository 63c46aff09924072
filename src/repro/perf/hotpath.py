"""The ``@hot_path`` marker.

A pure annotation — it returns the function unchanged (zero call
overhead) and exists so humans and ``repro lint`` agree on which
functions are performance-critical.  The lint rule ``hot-path``
enforces the discipline inside marked functions and the helpers they
call: telemetry, string building, wall-clock reads, and per-iteration
allocation must sit behind the ``REPRO_OBS`` gate (see
``docs/static-analysis.md``).

Mark *leaf* inner functions — one PE reduction, one DRAM transfer, one
parameter sync — not whole orchestration loops, whose functional use of
timers and batch allocation would drown the rule in pragmas.  Functions
that cannot import this module (or third-party code) can be marked by
dotted name in ``[tool.repro-lint.hot-path] functions`` instead.

This module must stay import-light: the files that use the marker are
themselves the innermost of the codebase.
"""

from __future__ import annotations

import typing

F = typing.TypeVar("F", bound=typing.Callable)


def hot_path(func: F) -> F:
    """Mark ``func`` as a hot path for ``repro lint`` (no-op at runtime)."""
    func.__repro_hot_path__ = True      # type: ignore[attr-defined]
    return func
