"""Source invariants that ruff, mypy and the behaviour tests cannot see.

Each check is a function over a source root returning its findings: none on
the real tree, and a mutation test proves it catches its violation.  The
churn fence counts the allocator's work instead of reading its source.
Manager conformance lives with the other protocol tests in
``test_protocol.py``.
"""

import ast
import importlib.util
import random
import shutil
import sys
from pathlib import Path

import repro

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
        "TwoLevelAllocator": ("_num_fully_evictable", "num_large_evictions", "version"),
        "FreePool": ("_entry", "_by_request"),
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


#: Heterogeneous layer-type groups (kind, per-token bytes, window): 256 /
#: 384 / 640-byte small pages share 3840-byte large pages (15 / 10 / 6
#: small pages per large).
CHURN_GROUPS = {
    "full": ("full_attention", 64, None),
    "win": ("sliding_window", 96, 16),
    "big": ("full_attention", 160, None),
}


def churn_lines_per_op(package, num_large, seed, num_ops=20_000):
    """Python line events per ``allocate_page`` / ``release_page`` /
    ``acquire_cached`` call over a seeded random churn on one allocator of
    ``num_large`` large pages of ``package`` (``repro`` or a mutated copy).

    Half the ops allocate, 35% release (half of those cacheable, with a
    fresh block hash) and 15% take a reference on a cached block.  Line
    events count work exactly, where a timer would read the machine.
    """
    layer_policy, two_level = package.core.layer_policy, package.core.two_level
    specs = {
        name: layer_policy.GroupSpec(name, kind, 1, per_token, tokens_per_page=4,
                                     window=window, accepted_tags=frozenset({"text"}))
        for name, (kind, per_token, window) in CHURN_GROUPS.items()
    }
    alloc = two_level.TwoLevelAllocator(
        3840 * num_large, specs, {g: layer_policy.make_policy(s) for g, s in specs.items()}
    )
    lines = 0

    def tracer(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
        return tracer

    def counted(op, *args):
        previous = sys.gettrace()
        sys.settrace(tracer)
        try:
            return op(*args)
        finally:
            sys.settrace(previous)

    rng = random.Random(seed)
    group_ids = list(alloc.groups)
    live, hashes = [], []  # (group id, page) holding one reference; (group id, hash)
    for i in range(num_ops):
        roll = rng.random()
        if not live or roll < 0.50:
            gid = group_ids[rng.randrange(len(group_ids))]
            page = counted(alloc.allocate_page, gid, f"r{rng.randrange(32)}")
            if page is not None:
                group = alloc.groups[gid]
                group.last_access[page] = float(i)
                group.num_tokens[page] = 4
                group.note_fill(4)
                live.append((gid, page))
        elif roll < 0.85 or not hashes:
            gid, page = live.pop(rng.randrange(len(live)))
            cacheable = rng.random() < 0.5
            if cacheable:
                hashes.append((gid, len(hashes) + 1))
                alloc.register_block_hash(gid, page, len(hashes))
            counted(alloc.release_page, gid, page, cacheable)
        else:
            gid, block_hash = hashes[rng.randrange(len(hashes))]
            page = counted(alloc.acquire_cached, gid, block_hash, f"r{rng.randrange(32)}")
            if page is not None:
                live.append((gid, page))
    alloc.check_invariants()
    return lines / num_ops


def churn_scaling(package, seed):
    """Work per op at a 16x larger pool: ~1.0 when no op scans the pool."""
    return churn_lines_per_op(package, 1024, seed) / churn_lines_per_op(package, 64, seed)


def _load_tree(root, name):
    """Import the package at ``root`` under the top-level name ``name``."""
    spec = importlib.util.spec_from_file_location(
        name, root / "__init__.py", submodule_search_locations=[str(root)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


class TestChurnScaling:
    def test_op_cost_stays_flat_as_the_pool_grows_16x(self):
        for seed in (0, 1):
            assert churn_scaling(repro, seed) <= 1.3

    def test_pool_scan_is_flagged(self, tmp_path):
        root = _mutated_tree(tmp_path, "core/free_pool.py", "return len(self._entry)",
                             "return len([p for p in self._entry])")
        try:
            assert churn_scaling(_load_tree(root, "repro_mutant"), 0) > 1.3
        finally:
            for name in [n for n in sys.modules if n.split(".")[0] == "repro_mutant"]:
                del sys.modules[name]
