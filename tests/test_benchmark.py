"""Bench harness and the ``primacy bench --check`` regression gate."""

from __future__ import annotations

import json

import pytest

from repro.benchmark import DEFAULT_THRESHOLD, compare, run_bench
from repro.cli import main
from repro.core.primacy import PrimacyConfig

_FAST = dict(n_values=2048, config=PrimacyConfig(chunk_bytes=8192))


@pytest.fixture(scope="module")
def document() -> dict:
    return run_bench(["obs_temp"], **_FAST)


class TestRunBench:
    def test_document_shape(self, document):
        assert document["schema"] == 1
        row = document["results"]["obs_temp"]
        assert row["original_bytes"] == 2048 * 8
        assert row["compression_ratio"] > 0
        assert row["compress_mbps"] > 0
        assert row["decompress_mbps"] > 0

    def test_unknown_dataset_rejected(self):
        with pytest.raises(ValueError, match="unknown dataset"):
            run_bench(["no_such_dataset"], **_FAST)

    def test_ratio_is_deterministic(self, document):
        again = run_bench(["obs_temp"], **_FAST)
        assert (
            again["results"]["obs_temp"]["compression_ratio"]
            == document["results"]["obs_temp"]["compression_ratio"]
        )


class TestCompare:
    def _doctored(self, document, factor, metric="compress_mbps"):
        baseline = json.loads(json.dumps(document))
        baseline["results"]["obs_temp"][metric] *= factor
        return baseline

    def test_identical_documents_pass(self, document):
        assert compare(document, document) == []

    def test_injected_slowdown_detected(self, document):
        # Baseline claims 2x the throughput => current run reads as a
        # 50% regression, far past the 10% gate.
        baseline = self._doctored(document, 2.0)
        regressions = compare(document, baseline, DEFAULT_THRESHOLD)
        assert len(regressions) == 1
        assert "compress_mbps" in regressions[0]
        assert "obs_temp" in regressions[0]

    def test_drop_within_threshold_passes(self, document):
        baseline = self._doctored(document, 1.05)
        assert compare(document, baseline, DEFAULT_THRESHOLD) == []

    def test_ratio_regression_detected(self, document):
        baseline = self._doctored(document, 1.5, metric="compression_ratio")
        regressions = compare(document, baseline)
        assert any("compression_ratio" in r for r in regressions)

    def test_datasets_missing_from_baseline_are_skipped(self, document):
        assert compare(document, {"results": {}}) == []

    def test_summary_section(self):
        metrics = ("scaleup", "locality")
        current = {
            "results": {"obs_temp": {"scaleup": 0.1}},
            "summary": {"scaleup": 1.0, "locality": 0.95, "ungated": 0.0},
        }
        baseline = {"summary": {"scaleup": 2.0, "locality": 0.97, "ungated": 9.0}}
        regressions = compare(
            current, baseline, metrics=metrics, section="summary"
        )
        # Only the gated summary metric past the threshold regresses,
        # reported under the row name "summary"; per-dataset rows and
        # ungated keys are ignored.
        assert regressions == [
            "summary: scaleup regressed 50.0% (baseline 2.000, current 1.000)"
        ]
        assert compare(current, {}, metrics=metrics, section="summary") == []
        assert compare(current, baseline, metrics=metrics) == []

    def test_unknown_section_rejected(self, document):
        with pytest.raises(ValueError, match="section"):
            compare(document, document, section="totals")


class TestBenchCli:
    def test_check_fails_on_injected_slowdown(self, document, tmp_path, capsys):
        """Acceptance: the gate exits non-zero on a >10% slowdown."""
        baseline = json.loads(json.dumps(document))
        for row in baseline["results"].values():
            row["compress_mbps"] *= 100.0
            row["decompress_mbps"] *= 100.0
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(baseline))
        code = main([
            "bench", "--datasets", "obs_temp", "--n-values", "2048",
            "--chunk-bytes", "8192", "--baseline", str(path), "--check",
        ])
        assert code != 0
        assert "REGRESSION" in capsys.readouterr().err

    def test_check_passes_against_generous_baseline(self, tmp_path, capsys):
        out = tmp_path / "run.json"
        assert main([
            "bench", "--datasets", "obs_temp", "--n-values", "2048",
            "--chunk-bytes", "8192", "--output", str(out),
        ]) == 0
        document = json.loads(out.read_text())
        for row in document["results"].values():
            row["compress_mbps"] /= 100.0
            row["decompress_mbps"] /= 100.0
        base = tmp_path / "floor.json"
        base.write_text(json.dumps(document))
        assert main([
            "bench", "--datasets", "obs_temp", "--n-values", "2048",
            "--chunk-bytes", "8192", "--baseline", str(base), "--check",
        ]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_check_requires_baseline(self, capsys):
        assert main(["bench", "--check"]) == 2
        assert "requires --baseline" in capsys.readouterr().err
