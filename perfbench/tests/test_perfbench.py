"""Tests of the end-to-end benchmark itself.

Every metric is emitted with its unit, a corrupted record is counted as a
failed operation instead of being raised, and a run leaves no process,
shared-memory segment or scratch file behind.  Run from the repository
root::

    python -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for _path in (str(ROOT / "src"), str(BENCH)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import run  # noqa: E402
import workloads  # noqa: E402

from repro.storage.catalog import read_catalog  # noqa: E402

#: Full-size inputs; half a second gives one checkpoint per ingest-auto pass.
TINY = ["--seed", "3", "--seconds", "0.5"]
LAYER_UNITS = {name: unit for name, (unit, _moves) in workloads.PER_LAYER.items()}


def session_members(sid: int) -> list[str]:
    """Processes of session ``sid``, zombies included (empty without /proc)."""
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:  # exited while being listed
            continue
        if int(fields[3]) == sid:
            found.append(f"pid {stat.parent.name} state {fields[0]}")
    return found


def bench(out: Path, *args: str, env: dict | None = None):
    """Run the benchmark in a session of its own; returns (process,
    result line).

    The run must have waited for every process it started, directly or
    not, so none of its session is left when it exits, not even a zombie.
    """
    with subprocess.Popen(
        [sys.executable, str(BENCH / "run.py"), *TINY, "--out", str(out), *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        start_new_session=True,
    ) as popen:
        try:
            stdout, stderr = popen.communicate(timeout=300)
        finally:
            left = session_members(popen.pid)
            if popen.poll() is None:
                os.killpg(popen.pid, signal.SIGKILL)
    proc = subprocess.CompletedProcess(popen.args, popen.returncode, stdout, stderr)
    assert proc.returncode == 0, proc.stderr
    assert not left, f"processes left by the run: {left}"
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_what_the_runner_emits():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS


#: Per-layer metrics that must be non-zero on each workload's traced run.
EXERCISED = {
    "ingest-auto": ["compressors.solver_s", "compressors.solver_mbps",
                    "core.precondition_s", "planner.probe_s", "parallel.tasks",
                    "parallel.worker_s", "storage.close_s", "storage.bytes_written",
                    "storage.read_s", "storage.io_s", "core.decode_s",
                    "compressors.decode_s", "storage.bytes_touched_per_read"],
    "serve": ["serve.engine_ms_per_req", "serve.self_ms_per_req",
              "serve.acknowledged", "parallel.tasks"],
}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(tmp_path, workload):
    _, untraced = bench(tmp_path, "--workload", workload, "--trace", "0")
    proc, traced = bench(tmp_path, "--workload", workload, "--trace", "1")
    for result, units in ((untraced, run.END_TO_END), (traced, LAYER_UNITS)):
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] > 0
        assert {name: m["unit"] for name, m in result["metrics"].items()} == units
        assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert all(m["value"] > 0 for m in untraced["metrics"].values())
    layers = {name: m["value"] for name, m in traced["metrics"].items()}
    assert all(layers[name] > 0 for name in EXERCISED[workload])
    if workload == "serve":
        assert layers["serve.acknowledged"] == layers["serve.answered"]
    # The traced run prints its end-to-end values beside the untraced ones.
    lines = proc.stdout.splitlines()
    assert any(line.split()[:3] == ["end-to-end", "untraced", "traced"] for line in lines)
    for name in run.END_TO_END:
        assert any(line.split()[0] == name and len(line.split()) == 4 for line in lines)


def test_corrupt_record_counts_as_a_failed_read(tmp_path, monkeypatch, capsys):
    checkpoint = workloads.Ingest._checkpoint

    def checkpoint_then_corrupt(self, p, step, inputs, directory):
        writer = checkpoint(self, p, step, inputs, directory)
        if step == 0:
            # Flip one byte in the middle of a record of the sealed archive.
            manifest = read_catalog(directory)
            entry = manifest.entries[0]
            with open(directory / manifest.shards[entry.shard].name, "r+b") as fh:
                fh.seek(entry.offset + entry.length // 2)
                byte = fh.read(1)[0]
                fh.seek(-1, os.SEEK_CUR)
                fh.write(bytes([byte ^ 0xFF]))
        return writer

    monkeypatch.setattr(workloads.Ingest, "_checkpoint", checkpoint_then_corrupt)
    argv = ["--workload", "ingest-auto", *TINY, "--trace", "1", "--out", str(tmp_path)]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    # One read-back per pass fails; everything else succeeds.
    assert result["failed"] == 2 and result["attempted"] > 2
    assert result["correct"] is True  # detected, so no wrong bytes returned
    assert set(result["metrics"]) == set(LAYER_UNITS)
    errors = json.loads(next(line[7:] for line in lines if line.startswith("errors ")))
    assert errors == {"untraced": {"CorruptionError": 1}, "traced": {"CorruptionError": 1}}
    table = {line.split()[0]: line.split()[1:] for line in lines if line.split()}
    assert 0 < float(table["success_rate"][0]) < 1  # the untraced pass
    assert float(table["error_rate"][0]) > 0


def _shm_segments() -> set[str]:
    shm = Path("/dev/shm")
    return {p.name for p in shm.iterdir() if p.name.startswith("psm_")} if shm.is_dir() else set()


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_run_leaves_nothing_behind_under_the_sanitizer(tmp_path, workload):
    before = _shm_segments()
    env = dict(os.environ, REPRO_SANITIZE="1")
    proc, result = bench(tmp_path, "--workload", workload, "--trace", "1", env=env)
    assert "REPRO_SANITIZE" not in proc.stderr
    assert result["correct"] is True and result["failed"] == 0
    assert not _shm_segments() - before
    assert not [p for p in tmp_path.iterdir() if p.is_dir()]
    assert not list(tmp_path.rglob("*.tmp"))
    # bench() has checked that no process of the run is left.
    assert json.loads(next(line[5:] for line in proc.stdout.splitlines() if line.startswith("pids ")))


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "ingest-auto", *TINY],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
