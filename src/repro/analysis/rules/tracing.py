"""Rule ``unguarded-span``: gated tracing on the hot path.

In hot modules, span primitives on a ``tracer`` receiver must sit inside
an ``if`` testing the tracer's ``.enabled`` flag (the tracer's null fast
path), so a disabled tracer costs one predicate, never a method call or
an argument build:

    if self.tracer is not None and self.tracer.enabled:
        self.tracer.instant("queue/push", args={"depth": len(self._heap)})
"""

from __future__ import annotations

import ast

from ..engine import Context, Rule
from ..manifest import SPAN_METHODS

__all__ = ["UnguardedSpanRule"]


def _receiver_is_tracer(func: ast.Attribute) -> bool:
    """Whether the call receiver is a ``tracer`` name or attribute."""
    value = func.value
    if isinstance(value, ast.Name):
        return value.id == "tracer"
    if isinstance(value, ast.Attribute):
        return value.attr == "tracer"
    return False


def _span_guarded(ctx: Context) -> bool:
    """Whether an enclosing ``if`` tests the tracer's null fast path.

    Accepts an ``.enabled`` attribute access anywhere in the test (covers
    ``tracer.enabled`` and ``self.tracer.enabled``) or the conventional
    hoisted predicate ``if tracing:``.
    """
    for if_node in ctx.if_stack:
        for sub in ast.walk(if_node.test):
            if isinstance(sub, ast.Attribute) and sub.attr == "enabled":
                return True
            if isinstance(sub, ast.Name) and sub.id == "tracing":
                return True
    return False


class UnguardedSpanRule(Rule):
    name = "unguarded-span"

    def visit_Call(self, node: ast.Call, ctx: Context) -> None:
        if not ctx.is_hot:
            return
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr in SPAN_METHODS):
            return
        if not _receiver_is_tracer(func):
            return
        if not _span_guarded(ctx):
            ctx.report(
                self.name,
                node,
                f"tracer.{func.attr}(...) runs unconditionally on a hot "
                "path; guard the call site with the tracer's `.enabled` "
                "null fast path so a disabled tracer costs one predicate",
            )
