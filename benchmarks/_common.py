"""Shared infrastructure for the paper-reproduction benchmarks.

Every benchmark regenerates one table or figure from the paper.  Results
are printed as aligned text tables and also written under
``benchmarks/results/`` so EXPERIMENTS.md can reference them.

Dataset size is controlled with ``REPRO_BENCH_VALUES`` (number of float64
values per dataset, default 16384 = 128 KiB).  Larger sizes sharpen the
throughput numbers at the cost of runtime; the *shapes* are stable from
~8k values up.
"""

from __future__ import annotations

import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

# The repo root, so benches can import the test oracles (``tests.oracles``).
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

RESULTS_DIR = Path(__file__).parent / "results"

BENCH_VALUES = int(os.environ.get("REPRO_BENCH_VALUES", 16384))
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", 2012))

# PRIMACY chunk size for benches: one chunk per bench dataset keeps the
# per-chunk index overhead representative of the paper's 3 MB chunks
# relative to our smaller bench payloads.
BENCH_CHUNK_BYTES = max(BENCH_VALUES * 8, 64 * 1024)


def machine_info() -> dict:
    """The runner a bench result was measured on, for its JSON document.

    ``nproc`` is the number of CPUs this process may run on (its
    affinity mask), which can be fewer than ``cpu_count``.
    """
    cpu_count = os.cpu_count() or 1
    affinity = getattr(os, "sched_getaffinity", None)
    return {
        "cpu_count": cpu_count,
        "nproc": len(affinity(0)) if affinity is not None else cpu_count,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def fan_out_label(fan_out: int, what: str) -> str:
    """Name an ``N over 1`` throughput ratio for what this runner can show.

    With fewer usable CPUs than ``fan_out`` writers or clients, the ratio
    cannot show a scale-up, only that fan-out does not collapse
    throughput.  The gated metric keeps its name and floor either way.
    """
    cpus = machine_info()["nproc"]
    if cpus < fan_out:
        return (
            f"fan-out collapse check ({cpus} CPU(s) for {fan_out} {what}, "
            "not a scale-up)"
        )
    return "scale-up"


def dataset_bytes(name: str, n_values: int | None = None) -> bytes:
    from repro.datasets import generate_bytes

    return generate_bytes(name, n_values or BENCH_VALUES, seed=BENCH_SEED)


def time_call(fn, *args) -> tuple[object, float]:
    """Run ``fn(*args)`` once; return (result, seconds)."""
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def mbps(n_bytes: int, seconds: float) -> float:
    if seconds <= 0:
        return float("inf")
    return n_bytes / 1e6 / seconds


class Table:
    """Aligned text table that prints and persists itself."""

    def __init__(self, title: str, columns: list[str]) -> None:
        self.title = title
        self.columns = columns
        self.rows: list[list[str]] = []
        self.notes: list[str] = []

    def add(self, *cells: object) -> None:
        if len(cells) != len(self.columns):
            raise ValueError("cell count does not match columns")
        self.rows.append([_fmt(c) for c in cells])

    def note(self, text: str) -> None:
        self.notes.append(text)

    def render(self) -> str:
        widths = [
            max(len(self.columns[i]), *(len(r[i]) for r in self.rows))
            if self.rows
            else len(self.columns[i])
            for i in range(len(self.columns))
        ]
        lines = [self.title, "=" * len(self.title)]
        lines.append(
            "  ".join(c.ljust(w) for c, w in zip(self.columns, widths))
        )
        lines.append("  ".join("-" * w for w in widths))
        for row in self.rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"# {note}")
        return "\n".join(lines)

    def emit(self, filename: str) -> str:
        text = self.render()
        print("\n" + text)
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / filename).write_text(text + "\n")
        return text


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        if cell == 0 or 0.01 <= abs(cell) < 10000:
            return f"{cell:.2f}"
        return f"{cell:.3g}"
    return str(cell)


def geometric_mean(values: list[float]) -> float:
    arr = np.asarray(values, dtype=np.float64)
    return float(np.exp(np.log(arr).mean()))
