"""Rule ``seqlock``: the shared-parameter store's locking protocol.

:class:`repro.core.shared_params.SharedParameterStore` keeps θ and the
RMSProp ``g`` in shared memory behind a writer lock and a seqlock
version word.  The protocol has two sides, and each gets a check:

* **Writer side** (inside ``repro/core/shared_params.py``): mutations
  of shared state — the ``_version``/``_step``/``_updates`` counter
  words and writes into the ``theta_flat()``/``g_flat()`` vectors —
  must happen while the writer lock is held: lexically inside ``with
  <...>.lock:``, or in a function that first calls
  ``<...>.lock.acquire()`` or ``_timed_acquire()``.
* **Reader side** (everywhere else): code must not reach into the
  store's internals at all — calling ``theta_flat()`` / ``g_flat()`` /
  ``begin_write()`` / ``end_write()``, or touching ``store._theta`` /
  ``store._g`` / ``store._version``, bypasses the seqlock and can see a
  torn write.  Use the snapshot API (``snapshot_into`` /
  ``snapshot_flat_into`` / ``publish`` / ``apply_gradients``).

The writer-side check is lexical, not a dataflow analysis: writes that
happen before the store is shared (construction) or in protocol
primitives whose *callers* hold the lock carry a pragma stating that.
"""

from __future__ import annotations

import ast
import typing

from repro.lint import astutil
from repro.lint.config import path_matches
from repro.lint.registry import Rule, register

#: The store module, where the writer side of the protocol lives.
_STORE_MODULE = "repro/core/shared_params.py"
#: Helpers that take the writer lock, like ``lock.acquire()``.
_ACQUIRE_HELPERS = {"_timed_acquire"}

#: Shared counter words: writes to `<x>._step.value` etc. need the lock.
_COUNTER_WORDS = {"_version", "_step", "_updates"}

#: Store methods that hand out raw views of the shared vectors.
_RAW_VIEW_METHODS = {"theta_flat", "g_flat"}

#: Writer-side protocol methods callers outside the store must not use.
_WRITER_PROTOCOL = {"begin_write", "end_write"}


@register
class SeqlockRule(Rule):
    name = "seqlock"
    description = ("SharedParameterStore writes need the writer lock; "
                   "readers must use the snapshot/seqlock API")

    def check(self, ctx: astutil.FileContext):
        if path_matches(ctx.relpath, _STORE_MODULE):
            yield from self._check_writer_side(ctx)
        else:
            yield from self._check_reader_side(ctx)

    # -- reader side -------------------------------------------------------

    def _check_reader_side(self, ctx: astutil.FileContext):
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute):
                method = node.func.attr
                if method in _RAW_VIEW_METHODS:
                    yield ctx.finding(
                        self, node,
                        f".{method}() outside the store module bypasses "
                        "the seqlock; use snapshot_into()/"
                        "snapshot_flat_into() for a torn-read-safe copy")
                elif method in _WRITER_PROTOCOL:
                    yield ctx.finding(
                        self, node,
                        f".{method}() outside the store module; only "
                        "the store's own locked write paths may drive "
                        "the seqlock version word")
            elif isinstance(node, ast.Attribute) \
                    and node.attr in ("_theta", "_g", "_version") \
                    and self._base_is_store(node.value):
                yield ctx.finding(
                    self, node,
                    f"direct access to store.{node.attr} bypasses the "
                    "snapshot/seqlock API")

    def _base_is_store(self, node: ast.AST) -> bool:
        terminal = astutil.terminal_name(node)
        return terminal is not None and (terminal == "store"
                                         or terminal.endswith("_store"))

    # -- writer side -------------------------------------------------------

    def _check_writer_side(self, ctx: astutil.FileContext):
        for func in ctx.functions():
            writes = list(self._shared_writes(func))
            if not writes:
                continue
            for node, what in writes:
                if not self._lock_held(ctx, func, node):
                    yield ctx.finding(
                        self, node,
                        f"{what} outside a `with ....lock:` region (and "
                        "no lock acquire earlier in "
                        f"{ctx.qualname(func)}()); a concurrent reader "
                        "can see a torn write")

    def _shared_writes(self, func: astutil.FunctionNode
                       ) -> typing.Iterator[typing.Tuple[ast.AST, str]]:
        for node in ast.walk(func):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for target in targets:
                    word = self._counter_word(target)
                    if word:
                        yield node, f"write to {word}.value"
                    elif self._is_raw_view_write(target):
                        yield node, "write into a shared raw view"
            elif isinstance(node, ast.Call):
                name = astutil.dotted(node.func)
                if name and name.split(".")[-1] == "copyto" \
                        and node.args \
                        and self._is_raw_view_expr(node.args[0]):
                    yield node, "np.copyto into a shared vector"

    def _counter_word(self, target: ast.AST) -> typing.Optional[str]:
        """``_step`` for a ``<...>._step.value`` assignment target."""
        if isinstance(target, ast.Attribute) and target.attr == "value":
            base = astutil.terminal_name(target.value)
            if base in _COUNTER_WORDS:
                return base
        return None

    def _is_raw_view_write(self, target: ast.AST) -> bool:
        return isinstance(target, ast.Subscript) \
            and self._is_raw_view_expr(target.value)

    def _is_raw_view_expr(self, node: ast.AST) -> bool:
        """Does the expression call theta_flat()/g_flat() (possibly
        through a subscript)?"""
        if isinstance(node, ast.Subscript):
            node = node.value
        return isinstance(node, ast.Call) \
            and isinstance(node.func, ast.Attribute) \
            and node.func.attr in _RAW_VIEW_METHODS

    def _lock_held(self, ctx: astutil.FileContext,
                   func: astutil.FunctionNode, node: ast.AST) -> bool:
        # Lexically inside `with <...>.lock:` (any withitem whose
        # context expression's terminal attribute is `lock`)?
        for ancestor in ctx.ancestors(node):
            if isinstance(ancestor, (ast.With, ast.AsyncWith)):
                for item in ancestor.items:
                    expr = item.context_expr
                    if isinstance(expr, ast.Call):
                        expr = expr.func
                    if astutil.terminal_name(expr) == "lock":
                        return True
            if isinstance(ancestor, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                break
        # Or after an explicit acquire earlier in the same function?
        line = getattr(node, "lineno", 0)
        for other in ast.walk(func):
            if not isinstance(other, ast.Call):
                continue
            if getattr(other, "lineno", line + 1) >= line:
                continue
            name = astutil.dotted(other.func) or ""
            parts = name.split(".")
            if parts[-1] in _ACQUIRE_HELPERS:
                return True
            if len(parts) >= 2 and parts[-1] == "acquire" \
                    and parts[-2] == "lock":
                return True
        return False
