"""The AST rules (PL001, PL002, PL004, PL005) on their fixtures, and PL003's
shapes, now checked by PL101."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.lint import lint_paths

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]


def run_rule(code: str, fixture: Path):
    return lint_paths([fixture], select=[code], project_root=REPO_ROOT)


BAD_FIXTURES = {
    "PL001": FIXTURES / "pl001_bad.py",
    "PL002": FIXTURES / "pl002_bad.py",
    "PL004": FIXTURES / "core" / "pl004_bad.py",
    "PL005": FIXTURES / "compressors" / "pl005_bad.py",
}

GOOD_FIXTURES = {
    "PL001": FIXTURES / "pl001_good.py",
    "PL002": FIXTURES / "pl002_good.py",
    "PL004": FIXTURES / "core" / "pl004_good.py",
    "PL005": FIXTURES / "compressors" / "pl005_good.py",
}


@pytest.mark.parametrize("code", sorted(BAD_FIXTURES))
def test_bad_fixture_is_flagged(code):
    findings = run_rule(code, BAD_FIXTURES[code])
    assert findings, f"{code} found nothing in its bad fixture"
    assert all(f.rule == code for f in findings)


@pytest.mark.parametrize("code", sorted(GOOD_FIXTURES))
def test_good_fixture_is_clean(code):
    findings = run_rule(code, GOOD_FIXTURES[code])
    assert findings == [], [f.message for f in findings]


class TestPL001:
    def test_flags_every_bad_pattern(self):
        findings = run_rule("PL001", BAD_FIXTURES["PL001"])
        assert len(findings) == 4
        messages = " | ".join(f.message for f in findings)
        assert "swallows exceptions" in messages
        assert "untyped RuntimeError" in messages
        assert "decode path" in messages

    def test_bare_except_counts_as_broad(self):
        findings = run_rule("PL001", BAD_FIXTURES["PL001"])
        assert any("<bare>" in f.message for f in findings)


class TestPL002:
    def test_flags_every_bad_pattern(self):
        findings = run_rule("PL002", BAD_FIXTURES["PL002"])
        assert len(findings) == 4
        messages = " | ".join(f.message for f in findings)
        assert "invalid struct format" in messages
        assert "packs 3 value(s)" in messages
        assert "needs 12 byte(s)" in messages
        assert "exceeds frame constant TRAILER_BYTES = 16" in messages


class TestPL003:
    """PL003's four shared-memory leak shapes, folded into PL101.

    The shapes live in ``pl101_bad.py`` under their PL003 names; PL101
    must still flag each once, two segments and two views.
    """

    SHAPES = {
        "leak_on_exception",
        "leak_attached_segment",
        "leak_memoryview",
        "leak_buf_alias",
    }

    def test_flags_every_bad_pattern(self):
        findings = [
            f
            for f in run_rule("PL101", FIXTURES / "pl101_bad.py")
            if re.search(r"acquired in '(\w+)'", f.message).group(1)
            in self.SHAPES
        ]
        assert len(findings) == 4
        segments = [f for f in findings if "SharedMemory segment" in f.message]
        views = [f for f in findings if "memoryview" in f.message]
        assert len(segments) == 2
        assert len(views) == 2


class TestPL004:
    def test_flags_every_bad_pattern(self):
        findings = run_rule("PL004", BAD_FIXTURES["PL004"])
        assert len(findings) == 3
        messages = " | ".join(f.message for f in findings)
        assert "dynamic-width slice" in messages
        assert "no preceding length check" in messages
        assert "no preceding bounds check" in messages

    def test_scope_is_storage_and_core_only(self, tmp_path):
        # The same bad source outside storage// core/ paths is ignored.
        outside = tmp_path / "elsewhere.py"
        outside.write_text(BAD_FIXTURES["PL004"].read_text())
        assert run_rule("PL004", outside) == []


class TestPL005:
    def test_flags_unregistered_codec(self):
        findings = run_rule("PL005", BAD_FIXTURES["PL005"])
        assert len(findings) == 1
        assert "OrphanCodec" in findings[0].message
        assert "register_codec" in findings[0].message

    def test_flags_untested_codec_without_sweep(self, tmp_path):
        # A synthetic project whose tests never exercise the codec.
        pkg = tmp_path / "src" / "compressors"
        pkg.mkdir(parents=True)
        (pkg / "thing.py").write_text(
            GOOD_FIXTURES["PL005"].read_text()
        )
        tests = tmp_path / "tests"
        tests.mkdir()
        (tests / "test_other.py").write_text("def test_nothing():\n    pass\n")
        findings = lint_paths(
            [pkg], select=["PL005"], project_root=tmp_path
        )
        assert findings, "expected untested-codec findings"
        assert all(
            "no round-trip test" in f.message for f in findings
        )

    def test_sweep_covers_all_codecs(self, tmp_path):
        pkg = tmp_path / "src" / "compressors"
        pkg.mkdir(parents=True)
        (pkg / "thing.py").write_text(GOOD_FIXTURES["PL005"].read_text())
        tests = tmp_path / "tests"
        tests.mkdir()
        (tests / "test_sweep.py").write_text(
            "from repro.compressors import available_codecs, get_codec\n"
            "def test_roundtrip():\n"
            "    for name in available_codecs():\n"
            "        c = get_codec(name)\n"
            "        assert c.decompress(c.compress(b'x')) == b'x'\n"
        )
        assert lint_paths([pkg], select=["PL005"], project_root=tmp_path) == []
