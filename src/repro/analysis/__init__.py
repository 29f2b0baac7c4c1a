"""jengalint: AST-based invariant linter for the Jenga reproduction.

The allocator's performance and correctness rest on invariants a type
checker cannot see: hot paths must stay O(1)-per-page, event dataclasses
must not be built for nobody, incremental counters must only move through
their owning class, and registered managers must structurally satisfy the
:class:`~repro.core.protocols.KVCacheManager` protocol.  jengalint
encodes each as a lint rule over a single AST walk per file -- no code is
imported, so it is safe on any tree.

On top of the per-file rules, the whole-program phase
(:mod:`repro.analysis.program`) builds a project graph from the same walk
and checks cross-module event-flow invariants: registry completeness,
orphaned events, manifest drift, and interprocedural emission guards.

Usage::

    PYTHONPATH=src python -m repro.analysis src      # lint the tree
    python -m repro.cli lint                          # same, via the CLI
    python -m repro.analysis src --format json        # machine-readable
    python -m repro.analysis src --baseline lint-baseline.json

Exit status: 0 clean, 1 when any finding survives suppression
(``# jengalint: disable=<rule>`` on the offending line) and baseline
filtering, 2 when the analysis itself failed (unreadable or unparseable
file) -- a crashed analysis proves nothing about the tree.

The baseline file grandfathers known findings by their stable
:attr:`~repro.analysis.engine.Finding.id`; a baselined finding that no
longer fires is itself reported (``stale-baseline``) so the baseline can
only shrink.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, List, Optional, Set

from .engine import (
    Finding,
    LintResult,
    Rule,
    analyze_paths as _analyze_paths,
    analyze_paths_result,
    analyze_source,
)
from .manifest import HOT_MODULES
from .rules import ALL_RULES

__all__ = [
    "ALL_RULES",
    "Finding",
    "HOT_MODULES",
    "LintResult",
    "Rule",
    "analyze_source",
    "load_baseline",
    "lint_paths",
    "run_lint",
    "write_baseline",
]

#: Current schema version of the committed baseline file.
BASELINE_VERSION = 1


def run_lint(paths: Iterable[str]) -> List[Finding]:
    """Lint ``paths`` (files or directories) with every registered rule."""
    return _analyze_paths(paths, ALL_RULES, HOT_MODULES)


def load_baseline(path: str) -> Set[str]:
    """Grandfathered finding IDs from a baseline file.

    Raises ``ValueError`` on a malformed file -- a silently ignored
    baseline would un-grandfather everything at once.
    """
    raw = json.loads(Path(path).read_text())
    if not isinstance(raw, dict) or raw.get("version") != BASELINE_VERSION:
        raise ValueError(f"unsupported baseline format in {path}")
    entries = raw.get("findings")
    if not isinstance(entries, list):
        raise ValueError(f"baseline {path} has no findings list")
    ids: Set[str] = set()
    for entry in entries:
        if not isinstance(entry, dict) or not isinstance(entry.get("id"), str):
            raise ValueError(f"malformed baseline entry in {path}: {entry!r}")
        ids.add(entry["id"])
    return ids


def write_baseline(path: str, findings: Iterable[Finding]) -> None:
    """Write ``findings`` as the new baseline (sorted, stable on disk)."""
    entries = sorted(
        (
            {
                "id": f.id,
                "rule": f.rule,
                "subject": f.subject or f"{f.path}:{f.line}",
                "path": f.path,
            }
            for f in findings
        ),
        key=lambda e: (e["rule"], e["subject"], e["id"]),
    )
    payload = {"version": BASELINE_VERSION, "findings": entries}
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def lint_paths(
    paths: Iterable[str], baseline: Optional[str] = None
) -> LintResult:
    """Full lint run: per-file rules + whole-program phase + baseline.

    Findings whose stable ID appears in the baseline are dropped;
    baselined IDs that no longer fire become ``stale-baseline`` findings
    anchored at the baseline file, so a fixed finding forces a baseline
    update in the same change (the baseline only shrinks).  A malformed
    baseline file is an analysis error (exit 2), not a finding.
    """
    result = analyze_paths_result(paths, ALL_RULES, HOT_MODULES)
    if baseline is None:
        return result
    try:
        grandfathered = load_baseline(baseline)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        result.errors.append(
            Finding(baseline, 1, 0, "baseline-error", f"unusable baseline: {exc}")
        )
        return result
    fired = {f.id for f in result.findings}
    result.findings = [f for f in result.findings if f.id not in grandfathered]
    for stale in sorted(grandfathered - fired):
        result.findings.append(
            Finding(
                path=baseline,
                line=1,
                col=0,
                rule="stale-baseline",
                message=(
                    f"baselined finding {stale} no longer fires; remove it "
                    "from the baseline (baselines only shrink)"
                ),
                subject=f"baseline:{stale}",
            )
        )
    result.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return result
