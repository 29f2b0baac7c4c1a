"""Whole-program project graph for jengalint's cross-module rules.

The per-file rules see one file at a time; the bug class they cannot
catch is *event-topology drift* -- an ``Event`` subclass nobody
subscribes to, a manifest entry pointing at a module that was renamed
away (PR 7 shipped a hand-found instance).
:class:`ProjectGraphBuilder` therefore rides the *same* single AST walk
the per-file rules use (one parse per file, no second phase over the
sources) and accumulates a project-wide graph:

* class definitions (bases, methods, class-level name tuples),
* ``Event`` subclasses, resolved transitively by base-class name,
* every ``bus.emit(...)`` site with its constructed event class and
  whether a ``has_subscribers``/``.enabled`` guard encloses it,
* every bus ``subscribe`` call site with its event-type filter, resolved
  through list literals, class attributes (``self._EVENT_TYPES``) and
  module-level tuples,
* which functions emit without a local guard (the helpers
  interprocedural-emit holds their callers to),
* the lint manifests themselves, read from the ``manifest.py`` AST (the
  file assigning ``EVENT_CLASSES`` at module level) -- never imported,
  so fixture mini-trees can carry their own.

:mod:`repro.analysis.program` runs the cross-module rules over the
finished graph.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .engine import Context, Rule

__all__ = [
    "CallArgSite",
    "ClassInfo",
    "EmitSite",
    "FunctionInfo",
    "ManifestData",
    "ProjectGraph",
    "ProjectGraphBuilder",
    "SubscribeSite",
]

#: Module-level manifest constants the graph understands.  ``frozenset``
#: calls over set/list/tuple literals and plain set literals parse;
#: anything fancier is ignored (the constant then reads as absent).
_MANIFEST_SET_NAMES = (
    "EVENT_CLASSES",
    "HOT_MODULES",
    "HOT_CLASSES",
    "SPAN_METHODS",
    "ORPHAN_ALLOWED",
)


@dataclass
class ClassInfo:
    """One class definition site."""

    name: str
    module: str
    path: str
    line: int
    bases: List[str] = field(default_factory=list)
    methods: Set[str] = field(default_factory=set)
    #: Class-level ``NAME = (A, B, ...)`` tuples/lists of names, used to
    #: resolve ``subscribe(self.NAME)``-style event filters.
    attr_tuples: Dict[str, Tuple[List[str], int]] = field(default_factory=dict)


@dataclass
class FunctionInfo:
    """Per-function facts for the cross-module rules."""

    module: str
    path: str
    cls: Optional[str]
    name: str
    line: int
    #: Whether the body contains an ``.emit(...)`` call with no enclosing
    #: ``has_subscribers``/``.enabled`` guard -- the signature of an
    #: emitting *helper* whose guard obligation falls on its callers.
    has_unguarded_emit: bool = False


@dataclass(frozen=True)
class EmitSite:
    """One ``<bus>.emit(...)`` call site."""

    module: str
    path: str
    line: int
    col: int
    event: Optional[str]  # constructed event class name; None for emit(var)
    guarded: bool
    cls: Optional[str]
    func: Optional[str]


@dataclass(frozen=True)
class SubscribeSite:
    """One bus ``subscribe(handler, event_types)`` call site.

    ``events`` is the resolved type-filter names; ``None`` means the
    filter could not be resolved (or was omitted), which the rules treat
    as a wildcard subscription covering every event class.
    ``pending`` defers class/module attribute lookups to graph-resolution
    time, when every file has been walked.
    """

    module: str
    path: str
    line: int
    events: Optional[Tuple[str, ...]] = None
    pending: Optional[Tuple[Optional[str], str]] = None  # (class or None, attr)


@dataclass(frozen=True)
class CallArgSite:
    """A call passing a freshly constructed ``Name(...)`` as an argument.

    Only sites whose constructed name is a registered event class matter;
    filtering happens at check time against the tree's manifest.
    """

    module: str
    path: str
    line: int
    col: int
    callee: str
    event: str
    guarded: bool
    cls: Optional[str]
    func: Optional[str]


@dataclass
class ManifestData:
    """Manifest constants read from one file's AST."""

    module: str
    path: str
    event_classes: Set[str] = field(default_factory=set)
    hot_modules: Set[str] = field(default_factory=set)
    hot_classes: Set[str] = field(default_factory=set)
    span_methods: Set[str] = field(default_factory=set)
    orphan_allowed: Set[str] = field(default_factory=set)
    #: Constant name -> line of its assignment (finding anchors).
    lines: Dict[str, int] = field(default_factory=dict)
    #: Which constants were actually assigned in the file.
    present: Set[str] = field(default_factory=set)


class ProjectGraph:
    """Accumulated whole-program facts (see module docstring)."""

    def __init__(self) -> None:
        self.modules: Dict[str, str] = {}  # logical module -> path
        self.classes: Dict[str, List[ClassInfo]] = {}
        self.functions: Dict[Tuple[str, Optional[str], str], FunctionInfo] = {}
        self.emit_sites: List[EmitSite] = []
        self.subscribe_sites: List[SubscribeSite] = []
        self.call_arg_sites: List[CallArgSite] = []
        self.manifests: List[ManifestData] = []
        self.module_tuples: Dict[Tuple[str, str], List[str]] = {}

    # -- lookups ---------------------------------------------------------

    def manifest(self) -> Optional[ManifestData]:
        """The tree's manifest: the file assigning ``EVENT_CLASSES``.

        Cross-module rules run only when the analyzed set contains one --
        lone fixture files and partial trees stay per-file-only.  With
        several candidates (never the case in this repo) the
        lexicographically first path wins, deterministically.
        """
        candidates = [m for m in self.manifests if "EVENT_CLASSES" in m.present]
        if not candidates:
            return None
        return min(candidates, key=lambda m: m.path)

    def event_subclasses(self) -> Dict[str, ClassInfo]:
        """Transitive subclasses of a base class named ``Event``."""
        known: Set[str] = {"Event"}
        result: Dict[str, ClassInfo] = {}
        changed = True
        while changed:
            changed = False
            for name, infos in self.classes.items():
                if name in known:
                    continue
                for info in infos:
                    if any(base in known for base in info.bases):
                        known.add(name)
                        result[name] = info
                        changed = True
                        break
        return result

    def resolve_subscribed(self) -> Tuple[Set[str], bool]:
        """Union of subscribed event names; second value is wildcard.

        Unresolvable filters count as wildcard subscriptions, erring away
        from false orphan reports.
        """
        subscribed: Set[str] = set()
        wildcard = False
        for site in self.subscribe_sites:
            names = self._site_events(site)
            if names is None:
                wildcard = True
            else:
                subscribed.update(names)
        return subscribed, wildcard

    def _site_events(self, site: SubscribeSite) -> Optional[Sequence[str]]:
        if site.events is not None:
            return site.events
        if site.pending is None:
            return None
        owner, attr = site.pending
        if owner is None:
            names = self.module_tuples.get((site.module, attr))
            return names
        for info in self.classes.get(owner, []):
            if attr in info.attr_tuples:
                return info.attr_tuples[attr][0]
        return None


# -- AST helpers ---------------------------------------------------------


def _emission_guarded(ctx: Context) -> bool:
    """Whether an enclosing ``if`` body carries an emission fast-path guard.

    Accepts a ``has_subscribers(...)`` call, an ``.enabled`` attribute
    access, or the hoisted ``tracing`` predicate -- the same guards the
    per-file ``unguarded-emit``/``unguarded-span`` rules accept.
    """
    for if_node in ctx.if_stack:
        for sub in ast.walk(if_node.test):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr == "has_subscribers"
            ):
                return True
            if isinstance(sub, ast.Attribute) and sub.attr == "enabled":
                return True
            if isinstance(sub, ast.Name) and sub.id == "tracing":
                return True
    return False


def _name_of(node: ast.AST) -> Optional[str]:
    """Bare name of a Name, or the attribute tail of ``pkg.Name``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _name_tuple(node: ast.AST) -> Optional[List[str]]:
    """``(A, B, ...)`` / ``[A, B, ...]`` of names, or None."""
    if not isinstance(node, (ast.Tuple, ast.List)):
        return None
    names: List[str] = []
    for elt in node.elts:
        name = _name_of(elt)
        if name is None:
            return None
        names.append(name)
    return names


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

    # -- walk hooks ------------------------------------------------------

    def begin_file(self, ctx: Context) -> None:
        self.graph.modules[ctx.module] = ctx.path

    def visit_ClassDef(self, node: ast.ClassDef, ctx: Context) -> None:
        info = ClassInfo(
            name=node.name,
            module=ctx.module,
            path=ctx.path,
            line=node.lineno,
            bases=[b for b in (_name_of(base) for base in node.bases) if b],
        )
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.methods.add(stmt.name)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                value = stmt.value
                if value is None:
                    continue
                names = _name_tuple(value)
                if names is None:
                    continue
                for target in targets:
                    if isinstance(target, ast.Name):
                        info.attr_tuples[target.id] = (names, stmt.lineno)
        self.graph.classes.setdefault(node.name, []).append(info)

    def visit_FunctionDef(self, node: ast.FunctionDef, ctx: Context) -> None:
        self._record_function(node, ctx)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef, ctx: Context) -> None:
        self._record_function(node, ctx)

    def _record_function(self, node: ast.AST, ctx: Context) -> None:
        name = getattr(node, "name", "")
        key = (ctx.module, ctx.current_class, name)
        if key not in self.graph.functions:
            self.graph.functions[key] = FunctionInfo(
                module=ctx.module,
                path=ctx.path,
                cls=ctx.current_class,
                name=name,
                line=getattr(node, "lineno", 1),
            )

    def _current_function(self, ctx: Context) -> Optional[FunctionInfo]:
        if not ctx.func_stack:
            return None
        key = (ctx.module, ctx.current_class, ctx.func_stack[-1])
        return self.graph.functions.get(key)

    # -- statements ------------------------------------------------------

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
            if not isinstance(target, ast.Name):
                continue
            names = _name_tuple(value)
            if names is not None:
                self.graph.module_tuples[(ctx.module, target.id)] = names
            if target.id in _MANIFEST_SET_NAMES:
                parsed = _literal_set(value)
                if parsed is not None:
                    self._manifest(ctx).present.add(target.id)
                    self._manifest(ctx).lines[target.id] = lineno
                    setattr(
                        self._manifest(ctx), target.id.lower(), parsed
                    )

    def _manifest(self, ctx: Context) -> ManifestData:
        data = self._manifest_by_path.get(ctx.path)
        if data is None:
            data = ManifestData(module=ctx.module, path=ctx.path)
            self._manifest_by_path[ctx.path] = data
            self.graph.manifests.append(data)
        return data

    # -- calls -----------------------------------------------------------

    def visit_Call(self, node: ast.Call, ctx: Context) -> None:
        if isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            if attr == "emit":
                self._record_emit(node, ctx, self._current_function(ctx))
            elif attr == "subscribe":
                self._record_subscribe(node, ctx)
            else:
                self._record_call_args(node, attr, ctx)
        elif isinstance(node.func, ast.Name):
            self._record_call_args(node, node.func.id, ctx)

    def _record_emit(
        self, node: ast.Call, ctx: Context, func_info: Optional[FunctionInfo]
    ) -> None:
        event: Optional[str] = None
        for arg in node.args:
            if isinstance(arg, ast.Call):
                name = _name_of(arg.func)
                if name is not None:
                    event = name
                    break
        guarded = _emission_guarded(ctx)
        self.graph.emit_sites.append(
            EmitSite(
                module=ctx.module,
                path=ctx.path,
                line=node.lineno,
                col=node.col_offset,
                event=event,
                guarded=guarded,
                cls=ctx.current_class,
                func=ctx.current_function,
            )
        )
        if func_info is not None and not guarded:
            func_info.has_unguarded_emit = True

    def _record_subscribe(self, node: ast.Call, ctx: Context) -> None:
        filt: Optional[ast.AST] = None
        if len(node.args) >= 2:
            filt = node.args[1]
        else:
            for kw in node.keywords:
                if kw.arg == "event_types":
                    filt = kw.value
        events: Optional[Tuple[str, ...]] = None
        pending: Optional[Tuple[Optional[str], str]] = None
        if filt is not None and not (
            isinstance(filt, ast.Constant) and filt.value is None
        ):
            names = _name_tuple(filt)
            if names is not None:
                events = tuple(names)
            elif isinstance(filt, ast.Attribute):
                owner = filt.value
                if isinstance(owner, ast.Name) and owner.id == "self":
                    pending = (ctx.current_class, filt.attr)
                elif isinstance(owner, ast.Name):
                    pending = (owner.id, filt.attr)
            elif isinstance(filt, ast.Name):
                pending = (None, filt.id)
        self.graph.subscribe_sites.append(
            SubscribeSite(
                module=ctx.module,
                path=ctx.path,
                line=node.lineno,
                events=events,
                pending=pending,
            )
        )

    def _record_call_args(self, node: ast.Call, callee: str, ctx: Context) -> None:
        for arg in node.args:
            if not (isinstance(arg, ast.Call) and isinstance(arg.func, ast.Name)):
                continue
            self.graph.call_arg_sites.append(
                CallArgSite(
                    module=ctx.module,
                    path=ctx.path,
                    line=node.lineno,
                    col=node.col_offset,
                    callee=callee,
                    event=arg.func.id,
                    guarded=_emission_guarded(ctx),
                    cls=ctx.current_class,
                    func=ctx.current_function,
                )
            )
