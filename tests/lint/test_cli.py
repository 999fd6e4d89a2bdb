"""End-to-end ``primacy lint`` CLI behaviour, including the repo-clean gate."""

from __future__ import annotations

import json
from pathlib import Path

from repro.cli import main
from repro.lint import Severity, lint_paths

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"


def test_repo_source_tree_lints_clean():
    """The acceptance gate: ``primacy lint src/`` exits 0 on this repo."""
    assert main(["lint", str(SRC)]) == 0


def test_repo_source_tree_has_no_error_findings():
    findings = lint_paths([SRC], project_root=REPO_ROOT)
    errors = [f for f in findings if f.severity is Severity.ERROR]
    assert errors == [], [f"{f.path}:{f.line} {f.rule} {f.message}" for f in errors]


def test_bad_fixture_exits_nonzero(capsys):
    rc = main(["lint", str(FIXTURES / "pl001_bad.py"), "--select", "PL001"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "PL001" in out
    assert "error(s)" in out


def test_json_format(capsys):
    rc = main(
        [
            "lint",
            str(FIXTURES / "pl001_bad.py"),
            "--select",
            "PL001",
            "--format",
            "json",
        ]
    )
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["errors"] == 4
    assert all(f["rule"] == "PL001" for f in payload["findings"])


def test_select_excludes_other_rules(capsys):
    rc = main(["lint", str(FIXTURES / "pl001_bad.py"), "--select", "PL002"])
    assert rc == 0


def test_ignore_drops_rule(capsys):
    rc = main(["lint", str(FIXTURES / "pl001_bad.py"), "--ignore", "PL001"])
    assert rc == 0


def test_unknown_rule_exits_2(capsys):
    rc = main(["lint", str(FIXTURES / "pl001_bad.py"), "--select", "PL999"])
    assert rc == 2
    assert "lint error" in capsys.readouterr().err


def test_baseline_round_trip(tmp_path, capsys):
    fixture = str(FIXTURES / "pl001_bad.py")
    baseline = tmp_path / "baseline.json"

    rc = main(["lint", fixture, "--select", "PL001", "--write-baseline", str(baseline)])
    assert rc == 0
    assert "fingerprint(s)" in capsys.readouterr().out
    assert baseline.exists()

    # With the baseline applied, the same findings demote to warnings: exit 0.
    rc = main(["lint", fixture, "--select", "PL001", "--baseline", str(baseline)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "0 error(s), 4 warning(s)" in out


def test_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ("PL001", "PL002", "PL003", "PL004", "PL005"):
        assert code in out
    assert "PL101" not in out


def test_list_rules_deep_includes_deep_tier(capsys):
    assert main(["lint", "--list-rules", "--deep"]) == 0
    out = capsys.readouterr().out
    for code in ("PL101", "PL102", "PL103"):
        assert code in out
    assert "PL104" not in out


def test_deep_gate_on_repo_src(monkeypatch):
    """The acceptance gate: ``primacy lint --deep src`` exits 0."""
    monkeypatch.chdir(REPO_ROOT)
    assert main(["lint", "--deep", "src"]) == 0


def test_deep_flags_bad_fixture(capsys, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    rc = main(
        [
            "lint",
            "--deep",
            str(FIXTURES / "pl101_bad.py"),
            "--select",
            "PL101",
        ]
    )
    assert rc == 1
    assert "PL101" in capsys.readouterr().out


def test_deep_cache_reports_stats(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    cache = tmp_path / "cache.json"
    # pl103_good is clean under the shallow tier too (pl101_good
    # deliberately trips the cruder PL003 heuristic).
    fixture = str(FIXTURES / "pl103_good.py")

    assert main(["lint", "--deep", fixture, "--cache", str(cache)]) == 0
    assert "project phase miss" in capsys.readouterr().err

    assert main(["lint", "--deep", fixture, "--cache", str(cache)]) == 0
    err = capsys.readouterr().err
    assert "1 file hit(s), 0 miss(es), project phase hit" in err


def test_explain_prints_rationale_and_examples(capsys, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    assert main(["lint", "--explain", "PL101"]) == 0
    out = capsys.readouterr().out
    assert "PL101" in out
    assert "bad" in out.lower()
    assert "good" in out.lower()
    # The examples come from the fixture files when they exist.
    assert "leak_on_except_return" in out


def test_explain_shallow_rule(capsys):
    assert main(["lint", "--explain", "PL001"]) == 0
    assert "PL001" in capsys.readouterr().out


def test_explain_unknown_rule_exits_2(capsys):
    assert main(["lint", "--explain", "PL999"]) == 2
    assert "PL999" in capsys.readouterr().err
