"""Rule ``per-token-rehash``: incremental hashing and batched events.

PR 6 made the prefix path incremental on two axes, and this rule keeps
both from regressing:

* **From-scratch rehash**: ``chain_hashes(stream, boundaries)`` folds the
  whole stream every call.  On the lookup hot path (``kv_manager.py`` and
  friends) a decode-time extension must reuse the memoized chain owned by
  the sequence (``SequenceSpec.hash_chain``), so extending by one block
  costs one fold, not O(stream).  Calls to any name in
  ``PER_TOKEN_HASH_FUNCS`` from a hot module are flagged; the
  from-scratch helper remains the property-test oracle elsewhere.

* **Per-page event loops**: emitting a per-item event inside a loop when
  a batched equivalent exists (``BATCHED_EVENTS``) publishes one
  dataclass per page where a single batched record would do:

      for page in pages:
          bus.emit(PageAllocated(gid, rid, page.page_id, step))   # flagged

  must become one ``PagesAllocated`` for the whole batch.  Flagged in
  every module -- the emit loop is wasteful wherever it lives.
"""

from __future__ import annotations

import ast

from ..engine import Context, Rule
from ..manifest import BATCHED_EVENTS, PER_TOKEN_HASH_FUNCS

__all__ = ["PerTokenRehashRule"]


def _call_name(func: ast.expr) -> str:
    """Bare or attribute name of a call target (``f`` / ``mod.f``)."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


class PerTokenRehashRule(Rule):
    name = "per-token-rehash"

    def visit_Call(self, node: ast.Call, ctx: Context) -> None:
        name = _call_name(node.func)
        if name in PER_TOKEN_HASH_FUNCS:
            if ctx.is_hot:
                ctx.report(
                    self.name,
                    node,
                    f"{name}(...) re-hashes the full stream from scratch on "
                    "a hot module; use the memoized SequenceSpec.hash_chain "
                    "so decode-time extension folds only the new blocks",
                )
            return
        if name != "emit" or not ctx.loop_stack:
            return
        for arg in node.args:
            if (
                isinstance(arg, ast.Call)
                and isinstance(arg.func, ast.Name)
                and arg.func.id in BATCHED_EVENTS
            ):
                batched = BATCHED_EVENTS[arg.func.id]
                ctx.report(
                    self.name,
                    node,
                    f"emit({arg.func.id}(...)) inside a loop publishes one "
                    f"event per item; emit a single {batched} for the whole "
                    "batch instead",
                )
                return
