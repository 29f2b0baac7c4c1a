"""jengalint's rule engine: one AST walk per file, rules as plugins.

A :class:`Rule` registers per-node-type handlers; the engine parses each
file once and dispatches every node to every interested rule in a single
pre-order walk, maintaining the lexical context (class stack, function
stack, enclosing guarded-``if`` stack) rules need to reason about scope.
Project-wide rules (e.g. protocol conformance) accumulate state across
files and report from :meth:`Rule.finalize` after the walk.

Suppression and retargeting directives, both line comments:

* ``# jengalint: disable=<rule>[,<rule>...]`` -- suppress the named rules
  on that source line (an audited exception; say why in the same comment).
* ``# jengalint: module=<path>`` -- near the top of a file, lint it *as
  if* it lived at the given repo path.  Used by test fixtures to opt into
  hot-module rules without living under ``src/repro``.
"""

from __future__ import annotations

import ast
import hashlib
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Type

__all__ = [
    "Finding",
    "LintResult",
    "Rule",
    "Context",
    "analyze_paths",
    "analyze_paths_result",
    "analyze_source",
]

_DISABLE_RE = re.compile(r"#\s*jengalint:\s*disable=([\w\-,\s]+)")
_MODULE_RE = re.compile(r"#\s*jengalint:\s*module=(\S+)")

#: How many leading lines may carry the ``module=`` retarget directive.
_DIRECTIVE_WINDOW = 10


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location.

    ``subject`` is the finding's *symbolic* anchor -- what it is about
    (``"span-method:tick"``, ``"hot-class:LCMAllocator"``), independent
    of line numbers.  Cross-module rules always set it; per-file rules
    fall back to a ``module:line`` anchor.  :attr:`id` hashes
    ``rule|subject`` into the stable identifier the baseline file stores,
    so a finding keeps its identity while unrelated edits move it around.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str
    subject: str = ""

    @property
    def id(self) -> str:
        anchor = self.subject or f"{self.path}:{self.line}"
        digest = hashlib.sha1(f"{self.rule}|{anchor}".encode()).hexdigest()
        return digest[:12]

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"

    def to_json(self) -> Dict[str, object]:
        return {
            "id": self.id,
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "subject": self.subject,
            "message": self.message,
        }


@dataclass
class LintResult:
    """Outcome of one lint run, findings separated from analysis failures.

    ``errors`` are files the analysis could not process at all (syntax
    errors, unreadable files) -- a different failure class from rule
    findings: a crashed analysis proves nothing about the tree, so CLI
    entry points map it to exit code 2 instead of 1.
    ``stats["parses"]`` counts actual ``ast.parse`` calls; the whole-
    program phase shares the per-file walk, so it must equal
    ``stats["files"]`` (asserted by the lint wall-time budget test).
    """

    findings: List[Finding] = field(default_factory=list)
    errors: List[Finding] = field(default_factory=list)
    stats: Dict[str, int] = field(default_factory=dict)


class Context:
    """Per-file lexical state shared by all rules during the walk."""

    def __init__(self, path: str, module: str, is_hot: bool) -> None:
        self.path = path
        #: Logical repo path ("repro/core/two_level.py") used for
        #: manifest matching; fixtures retarget it via the directive.
        self.module = module
        self.is_hot = is_hot
        #: Enclosing class names, outermost first.
        self.class_stack: List[str] = []
        #: Enclosing function names, outermost first.
        self.func_stack: List[str] = []
        #: ``if`` statements whose *body* lexically encloses the current
        #: node (tests and else-branches are not covered by the guard).
        self.if_stack: List[ast.If] = []
        #: ``for``/``while`` statements whose *body* lexically encloses
        #: the current node (iterables, tests and else-branches are not).
        self.loop_stack: List[ast.AST] = []
        self.findings: List[Finding] = []

    def report(self, rule: str, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                path=self.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                rule=rule,
                message=message,
            )
        )

    @property
    def current_class(self) -> Optional[str]:
        return self.class_stack[-1] if self.class_stack else None

    @property
    def current_function(self) -> Optional[str]:
        return self.func_stack[-1] if self.func_stack else None


Handler = Callable[[ast.AST, Context], None]


class Rule:
    """Base class for lint rules.

    Subclasses set :attr:`name` and implement ``visit_<NodeType>``
    methods; the engine discovers them by reflection and dispatches the
    matching AST nodes during the single walk.  Rules needing cross-file
    state accumulate it on ``self`` and emit from :meth:`finalize`.
    """

    name: str = ""

    def handlers(self) -> Dict[Type[ast.AST], Handler]:
        found: Dict[Type[ast.AST], Handler] = {}
        for attr in dir(self):
            if not attr.startswith("visit_"):
                continue
            node_type = getattr(ast, attr[len("visit_"):], None)
            if isinstance(node_type, type) and issubclass(node_type, ast.AST):
                found[node_type] = getattr(self, attr)
        return found

    def begin_file(self, ctx: Context) -> None:
        """Hook called before a file's walk starts."""

    def finalize(self) -> List[Finding]:
        """Project-level findings, reported after every file was walked."""
        return []


def _logical_module(path: Path, source_head: Sequence[str]) -> str:
    """Repo path used for manifest matching (directive wins over layout)."""
    for line in source_head[:_DIRECTIVE_WINDOW]:
        match = _MODULE_RE.search(line)
        if match:
            return match.group(1)
    parts = path.as_posix().split("/")
    for idx in range(len(parts) - 1, -1, -1):
        if parts[idx] == "repro":
            return "/".join(parts[idx:])
    return path.as_posix()


def _suppressions(lines: Sequence[str]) -> Dict[int, Set[str]]:
    table: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(lines, start=1):
        match = _DISABLE_RE.search(line)
        if match:
            table[lineno] = {r.strip() for r in match.group(1).split(",") if r.strip()}
    return table


class _Walker:
    """Single pre-order walk dispatching nodes to interested rules."""

    def __init__(self, dispatch: Dict[Type[ast.AST], List[Handler]], ctx: Context):
        self._dispatch = dispatch
        self._ctx = ctx

    def walk(self, node: ast.AST) -> None:
        for handler in self._dispatch.get(type(node), ()):
            handler(node, self._ctx)
        if isinstance(node, ast.ClassDef):
            self._walk_fields(node, ("decorator_list", "bases", "keywords"))
            self._ctx.class_stack.append(node.name)
            self._walk_fields(node, ("body",))
            self._ctx.class_stack.pop()
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._walk_fields(node, ("decorator_list", "args", "returns"))
            self._ctx.func_stack.append(node.name)
            self._walk_fields(node, ("body",))
            self._ctx.func_stack.pop()
        elif isinstance(node, ast.If):
            self.walk(node.test)
            self._ctx.if_stack.append(node)
            for child in node.body:
                self.walk(child)
            self._ctx.if_stack.pop()
            for child in node.orelse:
                self.walk(child)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            self._walk_fields(node, ("target", "iter"))
            self._ctx.loop_stack.append(node)
            self._walk_fields(node, ("body",))
            self._ctx.loop_stack.pop()
            self._walk_fields(node, ("orelse",))
        elif isinstance(node, ast.While):
            self.walk(node.test)
            self._ctx.loop_stack.append(node)
            for child in node.body:
                self.walk(child)
            self._ctx.loop_stack.pop()
            for child in node.orelse:
                self.walk(child)
        else:
            for child in ast.iter_child_nodes(node):
                self.walk(child)

    def _walk_fields(self, node: ast.AST, fields: Tuple[str, ...]) -> None:
        for field in fields:
            value = getattr(node, field, None)
            if value is None:
                continue
            if isinstance(value, list):
                for child in value:
                    if isinstance(child, ast.AST):
                        self.walk(child)
            elif isinstance(value, ast.AST):
                self.walk(value)


def _collect_files(paths: Iterable[str]) -> List[Path]:
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    return files


def analyze_source(
    source: str,
    path: str,
    rules: Sequence[Rule],
    hot_modules: Iterable[str],
) -> List[Finding]:
    """Lint one in-memory source file; returns per-file findings only.

    Project-level findings still come from the rules' :meth:`Rule.finalize`
    -- callers owning the rule instances collect those separately.
    """
    lines = source.splitlines()
    module = _logical_module(Path(path), lines)
    ctx = Context(path=path, module=module, is_hot=module in set(hot_modules))
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                path=path,
                line=exc.lineno or 1,
                col=exc.offset or 0,
                rule="parse-error",
                message=f"could not parse file: {exc.msg}",
            )
        ]
    dispatch: Dict[Type[ast.AST], List[Handler]] = {}
    for rule in rules:
        rule.begin_file(ctx)
        for node_type, handler in rule.handlers().items():
            dispatch.setdefault(node_type, []).append(handler)
    _Walker(dispatch, ctx).walk(tree)
    suppressed = _suppressions(lines)
    return [
        f
        for f in ctx.findings
        if f.rule not in suppressed.get(f.line, set())
    ]


def analyze_paths_result(
    paths: Iterable[str],
    rule_classes: Sequence[Type[Rule]],
    hot_modules: Iterable[str],
) -> LintResult:
    """Lint files/directories with fresh rule instances.

    Directories are recursed for ``*.py``.  Per-rule suppression comments
    are honoured for both walk-time and finalize-time findings.  Each
    file is parsed exactly once; the whole-program phase (cross-module
    rules) rides the same walk, accumulating its project graph from the
    per-file dispatch and reporting from :meth:`Rule.finalize`.
    """
    rules = [cls() for cls in rule_classes]
    result = LintResult(stats={"files": 0, "parses": 0})
    suppressed_by_path: Dict[str, Dict[int, Set[str]]] = {}
    for file in _collect_files(paths):
        result.stats["files"] += 1
        try:
            source = file.read_text()
        except (OSError, UnicodeDecodeError) as exc:
            result.errors.append(
                Finding(str(file), 1, 0, "parse-error", f"could not read file: {exc}")
            )
            continue
        suppressed_by_path[str(file)] = _suppressions(source.splitlines())
        result.stats["parses"] += 1
        for finding in analyze_source(source, str(file), rules, hot_modules):
            if finding.rule == "parse-error":
                result.errors.append(finding)
            else:
                result.findings.append(finding)
    for rule in rules:
        for finding in rule.finalize():
            table = suppressed_by_path.get(finding.path, {})
            if finding.rule in table.get(finding.line, set()):
                continue
            result.findings.append(finding)
    result.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    result.errors.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return result


def analyze_paths(
    paths: Iterable[str],
    rule_classes: Sequence[Type[Rule]],
    hot_modules: Iterable[str],
) -> List[Finding]:
    """Back-compat wrapper: findings and analysis errors as one flat list."""
    result = analyze_paths_result(paths, rule_classes, hot_modules)
    merged = result.findings + result.errors
    merged.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return merged
