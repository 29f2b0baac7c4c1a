"""Source invariants that ruff, mypy and the behaviour tests cannot see.

Each check is a function over a source root returning its findings: none on
the real tree, and a mutation test proves it catches its violation.  Manager
conformance lives with the other protocol tests in ``test_protocol.py``.
"""

import ast
import shutil
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Incrementally-maintained counters and indexes -> the one class allowed
#: to assign them (through ``self``).  Anyone else must go through the
#: owner's methods, or the O(1) accounting drifts from the ground truth
#: ``check_invariants`` / ``stats_slow`` recompute.  ``version`` is the
#: pool-state version admission verdicts are keyed on.
OWNED_COUNTERS = {
    attr: owner
    for owner, attrs in {
        "GroupAllocator": ("n_used", "n_evictable", "n_empty_carved",
                           "used_filled_tokens", "num_evictions"),
        "TwoLevelAllocator": ("_num_fully_evictable", "_num_large_owned",
                              "num_large_evictions", "version"),
        "FreePool": ("_entry", "_by_request", "_by_large"),
        "AdmissionCache": ("num_demand_hits", "num_demand_misses"),
        "PagedAttentionManager": ("_mamba_churn",),
    }.items()
    for attr in attrs
}


def _stored_attributes(target):
    """``obj.attr`` nodes a store to ``target`` writes (``obj.attr[k]`` too)."""
    for node in ast.walk(target):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            node = node.value
        elif not isinstance(getattr(node, "ctx", None), ast.Store):
            continue
        if isinstance(node, ast.Attribute):
            yield node


def _attribute_writes(node, cls):
    """(line, enclosing class, attribute, through self) per attribute write."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = child.targets if isinstance(child, ast.Assign) else [child.target]
            for target in targets:
                for attr in _stored_attributes(target):
                    via_self = isinstance(attr.value, ast.Name) and attr.value.id == "self"
                    yield child.lineno, cls, attr.attr, via_self
        inner = child.name if isinstance(child, ast.ClassDef) else cls
        yield from _attribute_writes(child, inner)


def owned_counter_problems(root, owners=OWNED_COUNTERS):
    """Writes to an owned counter from outside its owner, plus map entries
    the owner never assigns (a stale map guards nothing)."""
    problems, assigned = [], set()
    for path in sorted(Path(root).rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for line, cls, attr, via_self in _attribute_writes(tree, None):
            if attr not in owners:
                continue
            if via_self and cls == owners[attr]:
                assigned.add(attr)
            else:
                problems.append(
                    f"{path}:{line}: '{attr}' is owned by {owners[attr]}, "
                    f"written in {cls or 'module scope'}"
                )
    problems += [
        f"'{attr}' is never assigned by {owner}"
        for attr, owner in sorted(owners.items())
        if attr not in assigned
    ]
    return problems


def wall_clock_imports(root):
    """``time`` / ``datetime`` imports under ``core/``: the simulation layer
    takes ``now`` from the engine's virtual clock and never samples one."""
    found = []
    for path in sorted((Path(root) / "core").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] in ("time", "datetime") for m in modules):
                found.append(f"{path}:{node.lineno}")
    return found


def _mutated_tree(tmp_path, rel, old, new):
    """A copy of ``src/repro`` with the first ``old`` in ``rel`` replaced."""
    root = tmp_path / "repro"
    shutil.copytree(SRC, root, ignore=shutil.ignore_patterns("__pycache__"))
    target = root / rel
    text = target.read_text()
    assert old in text, f"mutation anchor missing from {rel}"
    target.write_text(text.replace(old, new, 1))
    return root


class TestOwnedCounters:
    def test_tree_writes_counters_only_through_their_owner(self):
        assert owned_counter_problems(SRC) == []

    def test_foreign_version_write_is_flagged(self, tmp_path):
        old = "        return self.allocator.version\n"
        root = _mutated_tree(tmp_path, "core/kv_manager.py", old,
                             "        self.allocator.version += 1\n" + old)
        (problem,) = owned_counter_problems(root)
        assert "kv_manager.py" in problem and "'version'" in problem

    def test_stale_map_entry_is_flagged(self):
        owners = {**OWNED_COUNTERS, "num_ghosts": "FreePool"}
        assert owned_counter_problems(SRC, owners) == ["'num_ghosts' is never assigned by FreePool"]


class TestNoWallClockInCore:
    def test_core_imports_no_clock(self):
        assert wall_clock_imports(SRC) == []

    def test_from_time_import_is_flagged(self, tmp_path):
        old = "from __future__ import annotations\n"
        root = _mutated_tree(tmp_path, "core/evictor.py", old, old + "from time import monotonic\n")
        (found,) = wall_clock_imports(root)
        assert found.startswith(str(root / "core" / "evictor.py"))
