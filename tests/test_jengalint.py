"""jengalint: fixtures flag, clean passes, suppressions round-trip."""

from pathlib import Path

import pytest

from repro.analysis import ALL_RULES, run_lint
from repro.analysis.__main__ import main as lint_main

FIXTURES = Path(__file__).parent / "lint_fixtures"
SRC = Path(__file__).parent.parent / "src"

#: bad fixture -> the one rule it exists to trigger.
BAD_FIXTURES = {
    "bad_hot_path.py": "hot-path-scan",
    "bad_unguarded_span.py": "unguarded-span",
    "bad_protocol.py": "protocol-conformance",
    "bad_probe.py": "duck-typed-probe",
    "bad_guarded_counter.py": "guarded-counter",
    "bad_per_token_rehash.py": "per-token-rehash",
    "bad_wall_clock.py": "wall-clock",
    "bad_dynamic_attr.py": "dynamic-attr",
}


def test_every_rule_has_a_bad_fixture():
    # The whole-program rule's fixtures are the project_* mini-trees,
    # covered by test_jengalint_program.py.
    per_file = sorted(r.name for r in ALL_RULES if r.name != "cross-module")
    assert sorted(BAD_FIXTURES.values()) == per_file


@pytest.mark.parametrize("fixture,rule", sorted(BAD_FIXTURES.items()))
def test_bad_fixture_is_flagged(fixture, rule):
    findings = run_lint([str(FIXTURES / fixture)])
    assert findings, f"{fixture} produced no findings"
    assert {f.rule for f in findings} == {rule}
    for f in findings:
        assert f.path.endswith(fixture)
        assert f.line >= 1
        assert rule in f.render()


def test_clean_fixture_passes():
    assert run_lint([str(FIXTURES / "clean.py")]) == []


@pytest.mark.parametrize("fixture,rule", sorted(BAD_FIXTURES.items()))
def test_suppression_comment_silences_each_finding(tmp_path, fixture, rule):
    """Round-trip: append disable=<rule> to every flagged line -> clean."""
    source_path = FIXTURES / fixture
    findings = run_lint([str(source_path)])
    lines = source_path.read_text().splitlines()
    for f in findings:
        lines[f.line - 1] += f"  # jengalint: disable={f.rule}"
    patched = tmp_path / fixture
    patched.write_text("\n".join(lines) + "\n")
    assert run_lint([str(patched)]) == []


def test_suppression_is_per_rule(tmp_path):
    """disable= for the wrong rule must not silence a finding."""
    source_path = FIXTURES / "bad_wall_clock.py"
    findings = run_lint([str(source_path)])
    lines = source_path.read_text().splitlines()
    for f in findings:
        lines[f.line - 1] += "  # jengalint: disable=hot-path-scan"
    patched = tmp_path / "bad_wall_clock.py"
    patched.write_text("\n".join(lines) + "\n")
    still = run_lint([str(patched)])
    assert len(still) == len(findings)
    assert {f.rule for f in still} == {"wall-clock"}


def test_module_directive_opts_into_hot_rules(tmp_path):
    """Without the module= retarget, hot-module rules stay quiet."""
    source = (FIXTURES / "bad_hot_path.py").read_text().splitlines()
    assert "jengalint: module=" in source[0]
    stripped = tmp_path / "bad_hot_path.py"
    stripped.write_text("\n".join(source[1:]) + "\n")
    assert run_lint([str(stripped)]) == []


def test_real_tree_is_clean():
    assert run_lint([str(SRC)]) == []


def test_cli_exit_codes(capsys):
    assert lint_main([str(FIXTURES / "bad_probe.py")]) == 1
    out = capsys.readouterr().out
    assert "duck-typed-probe" in out
    assert lint_main([str(FIXTURES / "clean.py")]) == 0
    assert lint_main(["--list-rules"]) == 0
    listed = capsys.readouterr().out.split()
    assert listed == [r.name for r in ALL_RULES]


def test_parse_error_is_reported(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def f(:\n")
    findings = run_lint([str(broken)])
    assert [f.rule for f in findings] == ["parse-error"]
