"""Rule ``fp32-order``: keep fp32 accumulation order explicit.

The FA3C fast path is verified *bit-exact* against the per-element
reference (see ``fpga/pe.py``): ``np.add.accumulate`` is strictly
left-to-right, ``np.add.reduce`` over an explicit axis adds slices
first-to-last, but a plain 1-D ``np.sum``/``np.add.reduce`` pairwise-sums
and ``np.dot`` delegates to BLAS with no order guarantee at all.  In the
order-sensitive modules (``modules`` option; default ``repro/fpga/pe.py``,
``repro/fpga/tlu.py``, ``repro/nn``) every reduction must therefore state
its intent:

* ``np.sum(x)`` / ``x.sum()`` without an ``axis`` argument — flagged.
  Write ``axis=...`` (``axis=None`` for a deliberate full reduction
  outside the bit-exact contract), or use
  ``np.add.reduce(..., axis=..., dtype=...)`` /
  ``np.add.accumulate`` for ordered sums.
* ``np.add.reduce(x)`` without ``axis`` — flagged (1-D reduce is
  pairwise, which reads as ordered but is not).
* ``np.dot`` / ``np.inner`` / ``np.vdot`` — always flagged here; use
  ``np.matmul``/``@`` (the documented GEMM primitive) or an ordered
  reduce, or pragma the call with the reason order cannot leak.

Quantized-kernel modules are outside the bit-exact contract by design
(their datapath rounds through a storage precision before accumulating)
and are exempted by *configuration*, not per-call pragmas: list them
under the ``quantized-modules`` option and the rule skips those files
entirely.  A config declaration keeps the exemption reviewable in one
place and prevents pragma creep inside the quantized kernels.
"""

from __future__ import annotations

import ast

from repro.lint import astutil
from repro.lint.config import path_matches_any
from repro.lint.registry import Rule, register

_DEFAULT_MODULES = ("repro/fpga/pe.py", "repro/fpga/tlu.py", "repro/nn")

_ORDER_FREE = {"dot", "inner", "vdot"}
_SUM_NAMES = {"sum", "nansum"}


def _has_axis(node: ast.Call, positional_index: int) -> bool:
    if len(node.args) > positional_index:
        return True
    return any(keyword.arg == "axis" for keyword in node.keywords)


@register
class Fp32OrderRule(Rule):
    name = "fp32-order"
    description = ("numpy reductions in bit-exact modules must state "
                   "axis/order intent")
    option_keys = ("modules", "quantized-modules")

    def check(self, ctx: astutil.FileContext):
        quantized = self.list_option("quantized-modules", ())
        if quantized and path_matches_any(ctx.relpath, quantized):
            # Declared quantized-kernel module: outside the bit-exact
            # contract, exempt by configuration rather than pragma.
            return
        if not path_matches_any(ctx.relpath,
                                self.list_option("modules",
                                                 _DEFAULT_MODULES)):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(ctx, node)

    def _check_call(self, ctx: astutil.FileContext, node: ast.Call):
        # dotted() is None for calls on computed receivers like
        # `(a * b).sum()`; those still hit the method-form check below.
        name = astutil.dotted(node.func) or ""
        parts = name.split(".") if name else []
        is_numpy = bool(parts) and parts[0] in ctx.numpy_aliases
        # np.dot / np.inner / np.vdot: no accumulation-order guarantee.
        if is_numpy and len(parts) == 2 and parts[1] in _ORDER_FREE:
            yield ctx.finding(
                self, node,
                f"`{name}` has no fp32 accumulation-order guarantee in "
                "an order-sensitive module; use np.matmul/@ or an "
                "ordered np.add.reduce, or pragma with the reason order "
                "cannot leak")
            return
        # np.add.reduce without axis: 1-D pairwise, not left-to-right.
        if is_numpy and parts[1:] == ["add", "reduce"] \
                and not _has_axis(node, positional_index=1):
            yield ctx.finding(
                self, node,
                "`np.add.reduce` without an explicit axis pairwise-sums "
                "a 1-D input; state axis= (and dtype=) or use "
                "np.add.accumulate for a strictly ordered sum")
            return
        # np.sum(x) / x.sum() without axis.
        if is_numpy and len(parts) == 2 and parts[1] in _SUM_NAMES \
                and not _has_axis(node, positional_index=1):
            yield ctx.finding(
                self, node,
                f"`{name}` without an explicit axis; write axis=... "
                "(axis=None for a deliberate full reduction) so the "
                "reduction extent and order intent are visible")
            return
        # x.sum() method form (np.sum itself was handled above).
        if isinstance(node.func, ast.Attribute) \
                and node.func.attr in _SUM_NAMES \
                and not (isinstance(node.func.value, ast.Name)
                         and node.func.value.id in ctx.numpy_aliases) \
                and not _has_axis(node, positional_index=0):
            yield ctx.finding(
                self, node,
                ".sum() without an explicit axis; write axis=... "
                "(axis=None for a deliberate full reduction) so the "
                "reduction extent and order intent are visible")
