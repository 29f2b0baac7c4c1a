"""Whole-program jengalint: cross-module rules, baseline, CLI, budget."""

import json
import shutil
import time
from pathlib import Path

import pytest

from repro.analysis import lint_paths, load_baseline, write_baseline
from repro.analysis.__main__ import main as lint_main
from repro.analysis.engine import analyze_paths_result
from repro.analysis.manifest import HOT_MODULES
from repro.analysis.project_graph import ProjectGraphBuilder
from repro.analysis.program import PROGRAM_RULE_NAMES
from repro.cli import main as cli_main

FIXTURES = Path(__file__).parent / "lint_fixtures"
SRC = Path(__file__).parent.parent / "src"
BASELINE = Path(__file__).parent.parent / "lint-baseline.json"

#: cross-module rule -> its project_* fixture directory.
PROJECT_FIXTURES = {
    "event-registry": "project_event_registry",
    "orphan-event": "project_orphan",
    "manifest-drift": "project_manifest_drift",
    "interprocedural-emit": "project_interproc",
}


def test_every_program_rule_has_a_fixture_tree():
    assert sorted(PROJECT_FIXTURES) == sorted(PROGRAM_RULE_NAMES)
    for tree in PROJECT_FIXTURES.values():
        assert (FIXTURES / tree / "bad").is_dir()
        assert (FIXTURES / tree / "clean").is_dir()


@pytest.mark.parametrize("rule,tree", sorted(PROJECT_FIXTURES.items()))
def test_bad_tree_is_flagged(rule, tree):
    result = lint_paths([str(FIXTURES / tree / "bad")])
    assert result.findings, f"{tree}/bad produced no findings"
    assert {f.rule for f in result.findings} == {rule}
    assert not result.errors
    for f in result.findings:
        assert f.subject, "cross-module findings carry a symbolic subject"


@pytest.mark.parametrize("rule,tree", sorted(PROJECT_FIXTURES.items()))
def test_clean_near_miss_tree_passes(rule, tree):
    result = lint_paths([str(FIXTURES / tree / "clean")])
    assert result.findings == []
    assert result.errors == []


def test_lone_files_skip_program_rules():
    """Without a manifest in the analyzed set, cross-module rules are off."""
    result = lint_paths([str(FIXTURES / "project_orphan" / "bad" / "pool.py")])
    assert result.findings == []


def test_suppression_silences_cross_module_finding(tmp_path):
    src = FIXTURES / "project_orphan" / "bad"
    result = lint_paths([str(src)])
    (finding,) = result.findings
    tree = tmp_path / "bad"
    shutil.copytree(src, tree)
    target = tree / Path(finding.path).name
    lines = target.read_text().splitlines()
    lines[finding.line - 1] += "  # jengalint: disable=orphan-event"
    target.write_text("\n".join(lines) + "\n")
    assert lint_paths([str(tree)]).findings == []


def test_real_tree_is_clean_with_committed_baseline():
    result = lint_paths([str(SRC)], baseline=str(BASELINE))
    assert result.findings == []
    assert result.errors == []
    # The committed baseline carries no grandfathered findings: the tree
    # is genuinely clean, not baselined-clean.
    assert load_baseline(str(BASELINE)) == set()


# -- stable IDs and the baseline workflow ---------------------------------


def test_finding_ids_are_stable_and_line_independent():
    bad = str(FIXTURES / "project_orphan" / "bad")
    first = lint_paths([bad]).findings
    second = lint_paths([bad]).findings
    assert [f.id for f in first] == [f.id for f in second]
    (finding,) = first
    # Subject-anchored: the ID hashes rule|subject, not the line number.
    assert finding.subject == "event:WidgetMade"
    assert len(finding.id) == 12


def test_baseline_grandfathers_then_goes_stale(tmp_path):
    bad = str(FIXTURES / "project_orphan" / "bad")
    clean = str(FIXTURES / "project_orphan" / "clean")
    baseline = tmp_path / "baseline.json"
    write_baseline(str(baseline), lint_paths([bad]).findings)
    assert load_baseline(str(baseline))
    # Grandfathered: the same tree now lints clean against the baseline.
    grandfathered = lint_paths([bad], baseline=str(baseline))
    assert grandfathered.findings == []
    # Fixed: the finding no longer fires, so the baseline entry is stale
    # and itself becomes a finding (the baseline only shrinks).
    fixed = lint_paths([clean], baseline=str(baseline))
    assert [f.rule for f in fixed.findings] == ["stale-baseline"]
    assert fixed.findings[0].path == str(baseline)


def test_malformed_baseline_is_an_analysis_error(tmp_path):
    bad_baseline = tmp_path / "baseline.json"
    bad_baseline.write_text("{\"version\": 99}")
    result = lint_paths([str(FIXTURES / "clean.py")], baseline=str(bad_baseline))
    assert [f.rule for f in result.errors] == ["baseline-error"]


def test_write_baseline_cli_roundtrip(tmp_path):
    bad = str(FIXTURES / "project_orphan" / "bad")
    baseline = tmp_path / "baseline.json"
    assert lint_main([bad, "--write-baseline", str(baseline)]) == 0
    assert lint_main([bad, "--baseline", str(baseline)]) == 0
    assert lint_main([bad]) == 1


# -- output formats and exit codes ----------------------------------------


def test_json_output_is_stable_across_runs(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out1, out2):
        code = lint_main(
            [str(SRC), "--format", "json", "--output", str(out),
             "--baseline", str(BASELINE)]
        )
        assert code == 0
    assert out1.read_text() == out2.read_text()
    payload = json.loads(out1.read_text())
    assert payload["findings"] == []
    assert payload["errors"] == []
    assert payload["stats"]["files"] == payload["stats"]["parses"]


def test_json_payload_shape(tmp_path):
    out = tmp_path / "findings.json"
    code = lint_main(
        [str(FIXTURES / "project_orphan" / "bad"), "--format", "json",
         "--output", str(out)]
    )
    assert code == 1
    (entry,) = json.loads(out.read_text())["findings"]
    assert entry["rule"] == "orphan-event"
    assert entry["subject"] == "event:WidgetMade"
    assert set(entry) == {"id", "rule", "path", "line", "col", "subject", "message"}


def test_github_annotations(capsys):
    code = lint_main([str(FIXTURES / "project_orphan" / "bad"), "--github"])
    assert code == 1
    out = capsys.readouterr().out
    annotations = [l for l in out.splitlines() if l.startswith("::error ")]
    assert len(annotations) == 1
    assert "file=" in annotations[0] and ",line=" in annotations[0]
    assert "title=jengalint orphan-event" in annotations[0]


def test_exit_codes_distinguish_findings_from_crashes(tmp_path):
    assert lint_main([str(FIXTURES / "clean.py")]) == 0
    assert lint_main([str(FIXTURES / "bad_probe.py")]) == 1
    broken = tmp_path / "broken.py"
    broken.write_text("def f(:\n")
    assert lint_main([str(broken)]) == 2
    # A crash outranks findings: broken file + bad fixture -> still 2.
    assert lint_main([str(broken), str(FIXTURES / "bad_probe.py")]) == 2


def test_cli_lint_exit_codes(tmp_path, capsys):
    assert cli_main(["lint", str(FIXTURES / "clean.py")]) == 0
    assert cli_main(["lint", str(FIXTURES / "bad_probe.py")]) == 1
    broken = tmp_path / "broken.py"
    broken.write_text("def f(:\n")
    assert cli_main(["lint", str(broken)]) == 2
    capsys.readouterr()
    assert cli_main(
        ["lint", str(SRC), "--format", "json", "--baseline", str(BASELINE)]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["findings"] == [] and payload["errors"] == []


# -- mutation coverage: the real tree turns red in one lint run -----------


def _mutated_tree(tmp_path, rel, old, new):
    root = tmp_path / "repro"
    shutil.copytree(SRC / "repro", root)
    target = root / rel
    text = target.read_text()
    assert old in text, f"mutation anchor missing from {rel}"
    target.write_text(text.replace(old, new, 1))
    return root


def test_deleting_registry_entry_turns_tree_red(tmp_path):
    root = _mutated_tree(
        tmp_path, "analysis/manifest.py", '        "RequestRouted",\n', ""
    )
    result = lint_paths([str(root)])
    assert {f.rule for f in result.findings} == {"event-registry"}
    assert {f.subject for f in result.findings} == {"event:RequestRouted"}


def test_foreign_version_write_turns_tree_red(tmp_path):
    # Admission verdicts are keyed on TwoLevelAllocator.version; the
    # GUARDED_COUNTERS entry keeps every other class from moving it.
    root = _mutated_tree(
        tmp_path,
        "core/kv_manager.py",
        "        return self.allocator.version\n",
        "        self.allocator.version += 1\n"
        "        return self.allocator.version\n",
    )
    result = lint_paths([str(root)])
    assert {f.rule for f in result.findings} == {"guarded-counter"}


def test_one_subscribe_site_in_tree():
    """BusTelemetry is the only bus subscriber in src/repro: everything
    else that used to listen reads the fold's counters or its own state."""
    built = []

    class Capturing(ProjectGraphBuilder):
        def __init__(self):
            super().__init__()
            built.append(self)

    analyze_paths_result([str(SRC)], [Capturing], HOT_MODULES)
    (builder,) = built
    sites = {(site.module, site.pending) for site in builder.graph.subscribe_sites}
    assert sites == {("repro/obs/registry.py", ("BusTelemetry", "_EVENT_TYPES"))}


def test_removing_subscribe_site_turns_tree_red(tmp_path):
    # The fold's dispatch tuple is the tree's only subscription; dropping
    # AdmissionBlocked from it orphans exactly that event.
    root = _mutated_tree(
        tmp_path,
        "obs/registry.py",
        "        AdmissionBlocked,\n        RequestPreempted,\n",
        "        RequestPreempted,\n",
    )
    result = lint_paths([str(root)])
    assert {f.rule for f in result.findings} == {"orphan-event"}
    assert {f.subject for f in result.findings} == {"event:AdmissionBlocked"}


# -- bench guard ----------------------------------------------------------


def test_full_tree_lint_stays_in_budget():
    """One parse per file, and the whole run stays interactive-fast."""
    start = time.perf_counter()
    result = lint_paths([str(SRC)])
    elapsed = time.perf_counter() - start
    assert result.stats["files"] > 50
    # The whole-program phase rides the per-file walk: adding it must not
    # introduce a second parse of any file.
    assert result.stats["parses"] == result.stats["files"]
    assert elapsed < 10.0, f"lint took {elapsed:.1f}s; budget is 10s"
