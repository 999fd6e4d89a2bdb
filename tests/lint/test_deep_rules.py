"""Deep rules (PL101..PL103) over their fixtures plus src regressions."""

import ast
import textwrap
from pathlib import Path

import pytest

from repro.lint import lint_paths
from repro.lint.rules import all_rules, deep_rules

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures"
SRC = REPO_ROOT / "src"

DEEP_CODES = ("PL101", "PL102", "PL103")


def run_deep_rule(code, paths, project_root=REPO_ROOT):
    return lint_paths(
        paths,
        all_rules() + deep_rules(),
        select=[code],
        project_root=project_root,
    )


def test_deep_rules_registered_once():
    codes = [rule.code for rule in deep_rules()]
    assert codes == list(DEEP_CODES)
    shallow = {rule.code for rule in all_rules()}
    assert shallow.isdisjoint(codes)


@pytest.mark.parametrize("code", DEEP_CODES)
def test_bad_fixture_is_flagged(code):
    fixture = FIXTURES / f"{code.lower()}_bad.py"
    findings = run_deep_rule(code, [fixture])
    assert findings, f"{fixture.name} should trip {code}"
    assert {f.rule for f in findings} == {code}


@pytest.mark.parametrize("code", DEEP_CODES)
def test_good_fixture_is_clean(code):
    fixture = FIXTURES / f"{code.lower()}_good.py"
    findings = run_deep_rule(code, [fixture])
    assert findings == [], [f.message for f in findings]


def test_pl101_flags_every_leak_shape():
    findings = run_deep_rule("PL101", [FIXTURES / "pl101_bad.py"])
    # One finding per leaking function, none doubled up.
    assert len(findings) == 5
    assert len({f.line for f in findings}) == 5


def test_pl103_names_both_functions():
    findings = run_deep_rule("PL103", [FIXTURES / "pl103_bad.py"])
    messages = " ".join(f.message for f in findings)
    assert "encode_record" in messages and "decode_record" in messages
    assert "encode_frame" in messages and "decode_frame" in messages


# -- src regressions ------------------------------------------------------
#
# Both bugs below were found by running the deep rules over src and are
# fixed in the same change that introduced the rules.  The stripped-copy
# tests prove the rule still catches the original defect; the direct
# runs pin the fixed files clean.


def test_worker_attach_no_longer_leaks_on_track_failure():
    # parallel/engine.py: track_segment() runs inside the try whose
    # finally closes the worker-side mapping.
    findings = run_deep_rule("PL101", [SRC / "repro" / "parallel" / "engine.py"])
    assert findings == [], [f.message for f in findings]


def test_pl101_catches_pre_fix_worker_attach_shape(tmp_path):
    # The worker loop's outer except ships errors and keeps serving, so
    # a raise from track() between the attach and the protecting
    # try/finally leaks the mapping for the process's lifetime.
    shape = tmp_path / "worker.py"
    shape.write_text(
        textwrap.dedent(
            """
            from multiprocessing.shared_memory import SharedMemory

            def worker_loop(conn, ledger):
                while True:
                    task = conn.recv()
                    try:
                        shm = SharedMemory(name=task)
                        ledger.track(shm.name, shm.size)
                        try:
                            data = bytes(shm.buf[:8])
                        finally:
                            shm.close()
                        conn.send(data)
                    except Exception as exc:
                        conn.send(exc)
            """
        ),
        encoding="utf-8",
    )
    findings = run_deep_rule("PL101", [shape], project_root=tmp_path)
    assert len(findings) == 1
    assert "shm" in findings[0].message


def test_ledger_lock_has_at_fork_reinitializer():
    # lint/sanitize.py: _LEDGER_LOCK is reachable from the pool worker,
    # so the module must install an os.register_at_fork hook.
    findings = run_deep_rule(
        "PL102",
        [SRC / "repro" / "lint" / "sanitize.py", SRC / "repro" / "parallel"],
    )
    assert findings == [], [f.message for f in findings]


def test_pl102_catches_pre_fix_ledger_lock_shape(tmp_path):
    source = (SRC / "repro" / "lint" / "sanitize.py").read_text(
        encoding="utf-8"
    )
    assert "register_at_fork" in source
    tree = ast.parse(source)
    kept = [
        node
        for node in tree.body
        if "register_at_fork" not in ast.dump(node)
    ]
    assert len(kept) < len(tree.body)
    tree.body = kept
    stripped = ast.unparse(tree)
    pkg = tmp_path / "repro_lint"
    pkg.mkdir()
    (pkg / "sanitize.py").write_text(stripped, encoding="utf-8")
    engine_src = (SRC / "repro" / "parallel" / "engine.py").read_text(
        encoding="utf-8"
    )
    (pkg / "engine.py").write_text(engine_src, encoding="utf-8")
    findings = run_deep_rule("PL102", [pkg], project_root=tmp_path)
    assert any("_LEDGER_LOCK" in f.message for f in findings), [
        f.message for f in findings
    ]


def test_deep_rules_clean_over_src():
    findings = lint_paths(
        [SRC],
        all_rules() + deep_rules(),
        select=list(DEEP_CODES),
        project_root=REPO_ROOT,
    )
    assert findings == [], [
        f"{f.path}:{f.line} {f.rule} {f.message}" for f in findings
    ]
