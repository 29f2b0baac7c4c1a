"""Cross-module rule over the whole-program :class:`ProjectGraph`.

``manifest-drift``
    ``HOT_MODULES``/``HOT_CLASSES``/``SPAN_METHODS`` entries must resolve
    to real modules/classes/methods, and a hot class defined in a module
    absent from ``HOT_MODULES`` is reported (the hot-path rules would
    silently skip the whole file).  No per-file rule can see it: the
    manifest and the code it names live in different files.

The check is gated on the analyzed file set containing a manifest (a
module-level ``HOT_MODULES`` assignment): lone fixture files and partial
trees stay per-file-only instead of drowning in drift noise.
"""

from __future__ import annotations

from typing import List, Set

from .engine import Finding
from .project_graph import ManifestData, ProjectGraph

__all__ = ["PROGRAM_RULE_NAMES", "run_program_checks"]

#: Rule names the whole-program phase can report.
PROGRAM_RULE_NAMES = ("manifest-drift",)


def run_program_checks(graph: ProjectGraph) -> List[Finding]:
    manifest = graph.manifest()
    if manifest is None:
        return []
    return _check_manifest_drift(graph, manifest)


# -- manifest-drift ------------------------------------------------------


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
