"""Whole-program project graph for jengalint's cross-module rule.

The per-file rules see one file at a time; the bug class they cannot
catch is *manifest drift* -- a manifest entry pointing at a module or
class that was renamed away (PR 7 shipped a hand-found instance).
:class:`ProjectGraphBuilder` therefore rides the *same* single AST walk
the per-file rules use (one parse per file, no second phase over the
sources) and accumulates a project-wide graph:

* the analyzed modules,
* class definitions and their methods,
* the lint manifests themselves, read from the ``manifest.py`` AST (the
  file assigning ``HOT_MODULES`` at module level) -- never imported, so
  fixture mini-trees can carry their own.

:mod:`repro.analysis.program` runs the cross-module rule over the
finished graph.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from .engine import Context, Rule

__all__ = [
    "ClassInfo",
    "ManifestData",
    "ProjectGraph",
    "ProjectGraphBuilder",
]

#: Module-level manifest constants the graph understands.  ``frozenset``
#: calls over set/list/tuple literals and plain set literals parse;
#: anything fancier is ignored (the constant then reads as absent).
_MANIFEST_SET_NAMES = ("HOT_MODULES", "HOT_CLASSES", "SPAN_METHODS")


@dataclass
class ClassInfo:
    """One class definition site."""

    name: str
    module: str
    path: str
    line: int
    methods: Set[str] = field(default_factory=set)


@dataclass
class ManifestData:
    """Manifest constants read from one file's AST."""

    module: str
    path: str
    hot_modules: Set[str] = field(default_factory=set)
    hot_classes: Set[str] = field(default_factory=set)
    span_methods: Set[str] = field(default_factory=set)
    #: Constant name -> line of its assignment (finding anchors).
    lines: Dict[str, int] = field(default_factory=dict)
    #: Which constants were actually assigned in the file.
    present: Set[str] = field(default_factory=set)


class ProjectGraph:
    """Accumulated whole-program facts (see module docstring)."""

    def __init__(self) -> None:
        self.modules: Dict[str, str] = {}  # logical module -> path
        self.classes: Dict[str, List[ClassInfo]] = {}
        self.manifests: List[ManifestData] = []

    def manifest(self) -> Optional[ManifestData]:
        """The tree's manifest: the file assigning ``HOT_MODULES``.

        The cross-module rule runs only when the analyzed set contains one
        -- lone fixture files and partial trees stay per-file-only.  With
        several candidates (never the case in this repo) the
        lexicographically first path wins, deterministically.
        """
        candidates = [m for m in self.manifests if "HOT_MODULES" in m.present]
        if not candidates:
            return None
        return min(candidates, key=lambda m: m.path)


def _literal_set(node: ast.AST) -> Optional[Set[str]]:
    """String-set value of ``frozenset({...})`` / ``{...}`` / list/tuple."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("frozenset", "set")
    ):
        if len(node.args) != 1:
            return set() if not node.args else None
        node = node.args[0]
    if isinstance(node, (ast.Set, ast.List, ast.Tuple)):
        out: Set[str] = set()
        for elt in node.elts:
            if not (isinstance(elt, ast.Constant) and isinstance(elt.value, str)):
                return None
            out.add(elt.value)
        return out
    return None


class ProjectGraphBuilder(Rule):
    """Rule plugin that only *collects*; it reports nothing itself.

    Subclasses (:class:`~repro.analysis.rules.cross_module.CrossModuleRule`)
    run the program checks from :meth:`finalize`.
    """

    name = "project-graph"

    def __init__(self) -> None:
        self.graph = ProjectGraph()
        self._manifest_by_path: Dict[str, ManifestData] = {}

    def begin_file(self, ctx: Context) -> None:
        self.graph.modules[ctx.module] = ctx.path

    def visit_ClassDef(self, node: ast.ClassDef, ctx: Context) -> None:
        info = ClassInfo(name=node.name, module=ctx.module, path=ctx.path, line=node.lineno)
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.methods.add(stmt.name)
        self.graph.classes.setdefault(node.name, []).append(info)

    def visit_Assign(self, node: ast.Assign, ctx: Context) -> None:
        if not ctx.class_stack and not ctx.func_stack:
            self._module_level_assign(node.targets, node.value, node.lineno, ctx)

    def visit_AnnAssign(self, node: ast.AnnAssign, ctx: Context) -> None:
        if node.value is not None and not ctx.class_stack and not ctx.func_stack:
            self._module_level_assign([node.target], node.value, node.lineno, ctx)

    def _module_level_assign(
        self,
        targets: Sequence[ast.expr],
        value: ast.AST,
        lineno: int,
        ctx: Context,
    ) -> None:
        for target in targets:
            if not (isinstance(target, ast.Name) and target.id in _MANIFEST_SET_NAMES):
                continue
            parsed = _literal_set(value)
            if parsed is not None:
                manifest = self._manifest(ctx)
                manifest.present.add(target.id)
                manifest.lines[target.id] = lineno
                setattr(manifest, target.id.lower(), parsed)

    def _manifest(self, ctx: Context) -> ManifestData:
        data = self._manifest_by_path.get(ctx.path)
        if data is None:
            data = ManifestData(module=ctx.module, path=ctx.path)
            self._manifest_by_path[ctx.path] = data
            self.graph.manifests.append(data)
        return data
