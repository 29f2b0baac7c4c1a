"""Cross-module rules over the whole-program :class:`ProjectGraph`.

Each check encodes an event-topology invariant that no per-file rule can
see (the bug class PR 5 and PR 7 fixed by hand):

``event-registry``
    Every ``Event`` subclass defined anywhere is listed in the manifest's
    ``EVENT_CLASSES``, and every listed name resolves to a definition.
``orphan-event``
    Every event class that is actually emitted has at least one subscribe
    site (or an ``ORPHAN_ALLOWED`` manifest entry) -- an emit nobody can
    hear is either dead telemetry or a missing consumer.
``manifest-drift``
    ``HOT_MODULES``/``HOT_CLASSES``/``SPAN_METHODS`` entries must resolve
    to real modules/classes/methods, and a hot class defined in a module
    absent from ``HOT_MODULES`` is reported (the hot-path rules would
    silently skip the whole file).
``interprocedural-emit``
    A helper whose body emits without a local guard discharges its guard
    obligation onto callers; any call site handing it a freshly
    constructed event class with no enclosing ``has_subscribers`` /
    ``.enabled`` guard on the path is flagged (one-level call graph,
    name-based, conservative).

All checks are gated on the analyzed file set containing a manifest (a
module-level ``EVENT_CLASSES`` assignment): lone fixture files and
partial trees stay per-file-only instead of drowning in topology noise.
"""

from __future__ import annotations

from typing import Dict, List, Set

from .engine import Finding
from .project_graph import ManifestData, ProjectGraph

__all__ = ["PROGRAM_RULE_NAMES", "run_program_checks"]

#: Rule names the whole-program phase can report, in check order.
PROGRAM_RULE_NAMES = (
    "event-registry",
    "orphan-event",
    "manifest-drift",
    "interprocedural-emit",
)


def run_program_checks(graph: ProjectGraph) -> List[Finding]:
    manifest = graph.manifest()
    if manifest is None:
        return []
    findings: List[Finding] = []
    findings.extend(_check_event_registry(graph, manifest))
    findings.extend(_check_orphan_events(graph, manifest))
    findings.extend(_check_manifest_drift(graph, manifest))
    findings.extend(_check_interprocedural_emit(graph, manifest))
    return findings


# -- 1. event-registry ----------------------------------------------------


def _check_event_registry(
    graph: ProjectGraph, manifest: ManifestData
) -> List[Finding]:
    findings: List[Finding] = []
    defined = graph.event_subclasses()
    for name in sorted(set(defined) - manifest.event_classes):
        info = defined[name]
        findings.append(
            Finding(
                path=info.path,
                line=info.line,
                col=0,
                rule="event-registry",
                message=(
                    f"event class {name} is not listed in EVENT_CLASSES "
                    f"({manifest.module}); unlisted events bypass the "
                    "unguarded-emit and batching rules"
                ),
                subject=f"event:{name}",
            )
        )
    registry_line = manifest.lines.get("EVENT_CLASSES", 1)
    for name in sorted(manifest.event_classes - set(defined)):
        findings.append(
            Finding(
                path=manifest.path,
                line=registry_line,
                col=0,
                rule="event-registry",
                message=(
                    f"EVENT_CLASSES entry {name!r} does not resolve to any "
                    "Event subclass in the analyzed tree"
                ),
                subject=f"manifest-entry:{name}",
            )
        )
    return findings


# -- 2. orphan-event ------------------------------------------------------


def _check_orphan_events(
    graph: ProjectGraph, manifest: ManifestData
) -> List[Finding]:
    subscribed, wildcard = graph.resolve_subscribed()
    if wildcard:
        return []
    findings: List[Finding] = []
    seen: Set[str] = set()
    for site in graph.emit_sites:
        name = site.event
        if (
            name is None
            or name not in manifest.event_classes
            or name in subscribed
            or name in manifest.orphan_allowed
            or name in seen
        ):
            continue
        seen.add(name)
        findings.append(
            Finding(
                path=site.path,
                line=site.line,
                col=site.col,
                rule="orphan-event",
                message=(
                    f"event {name} is emitted here but has no subscribe "
                    "site anywhere in the tree; add a consumer or an "
                    "ORPHAN_ALLOWED manifest entry"
                ),
                subject=f"event:{name}",
            )
        )
    return findings


# -- 3. manifest-drift ----------------------------------------------------


def _check_manifest_drift(
    graph: ProjectGraph, manifest: ManifestData
) -> List[Finding]:
    findings: List[Finding] = []
    modules = set(graph.modules)

    line = manifest.lines.get("HOT_MODULES", 1)
    for entry in sorted(manifest.hot_modules - modules):
        findings.append(
            Finding(
                path=manifest.path,
                line=line,
                col=0,
                rule="manifest-drift",
                message=(
                    f"HOT_MODULES entry {entry!r} does not match any "
                    "analyzed module; the hot-path rules silently cover "
                    "nothing for it"
                ),
                subject=f"hot-module:{entry}",
            )
        )

    line = manifest.lines.get("HOT_CLASSES", 1)
    for entry in sorted(manifest.hot_classes):
        infos = graph.classes.get(entry)
        if not infos:
            findings.append(
                Finding(
                    path=manifest.path,
                    line=line,
                    col=0,
                    rule="manifest-drift",
                    message=(
                        f"HOT_CLASSES entry {entry!r} does not resolve to "
                        "any class definition in the analyzed tree"
                    ),
                    subject=f"hot-class:{entry}",
                )
            )
            continue
        for info in infos:
            if info.module not in manifest.hot_modules:
                findings.append(
                    Finding(
                        path=info.path,
                        line=info.line,
                        col=0,
                        rule="manifest-drift",
                        message=(
                            f"hot class {entry} is defined in {info.module}, "
                            "which is not in HOT_MODULES; its methods escape "
                            "every hot-path rule"
                        ),
                        subject=f"hot-class:{entry}:{info.module}",
                    )
                )

    line = manifest.lines.get("SPAN_METHODS", 1)
    all_methods: Set[str] = set()
    for infos in graph.classes.values():
        for info in infos:
            all_methods.update(info.methods)
    for entry in sorted(manifest.span_methods - all_methods):
        findings.append(
            Finding(
                path=manifest.path,
                line=line,
                col=0,
                rule="manifest-drift",
                message=(
                    f"SPAN_METHODS entry {entry!r} is not a method of any "
                    "analyzed class; the tracer API it guarded has moved"
                ),
                subject=f"span-method:{entry}",
            )
        )
    return findings


# -- 4. interprocedural-emit ----------------------------------------------


def _check_interprocedural_emit(
    graph: ProjectGraph, manifest: ManifestData
) -> List[Finding]:
    # Helpers that discharge their emission-guard obligation onto callers:
    # any project function whose body emits without a local guard.  The
    # bus's own ``emit`` (and anything named ``emit``) is the sink the
    # per-file rule already covers, not a helper.
    helpers: Dict[str, Set[str]] = {}
    for func in graph.functions.values():
        if func.has_unguarded_emit and func.name != "emit":
            helpers.setdefault(func.name, set()).add(func.module)
    if not helpers:
        return []
    findings: List[Finding] = []
    for site in graph.call_arg_sites:
        if (
            site.guarded
            or site.event not in manifest.event_classes
            or site.callee not in helpers
        ):
            continue
        findings.append(
            Finding(
                path=site.path,
                line=site.line,
                col=site.col,
                rule="interprocedural-emit",
                message=(
                    f"{site.callee} emits its event argument unguarded, so "
                    f"this call pays a {site.event} construction even with "
                    "no subscribers; guard the call with has_subscribers "
                    "(or move the guard into the helper)"
                ),
                subject=f"emit-path:{site.callee}:{site.event}",
            )
        )
    return findings
