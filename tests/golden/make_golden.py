"""Generator for the pinned golden-corpus artifacts.

Run ``python tests/golden/make_golden.py`` (with ``src`` on the path)
to regenerate everything under ``tests/golden/data/``.  Regeneration is
only legitimate alongside a *deliberate, documented* format change --
the committed artifacts are the compatibility contract older files hold
against today's decoder.

Everything here is deterministic: fixed seeds, fixed configs, pure-
Python codecs.  The CORRELATED index policy is chosen to pin the
trickiest decode path (index-reuse chains with extensions).  The planned
container pins planned records (flag 0x02) and the ``pylzo`` stream
bytes: its static-calibration planner sends chunks to ``pyzlib/hb2``
under both parses (the default and zlib's ``Z_RLE``), ``pylzo/hb1`` and
``pylzo/hb2``.  On the six perfbench chunks the two ``pyzlib`` parses
win every time, so two more chunks repeat a short block of values
(a periodic field), where ``pylzo`` wins at each split width.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.core import IndexReusePolicy, PrimacyConfig

DATA_DIR = Path(__file__).parent / "data"
PRIF_PATH = DATA_DIR / "golden.prif"
PRCK_PATH = DATA_DIR / "golden.prck"
PAYLOAD_PATH = DATA_DIR / "golden_payload.bin"
PLANNED_PATH = DATA_DIR / "golden_planned.pri"
PLANNED_PAYLOAD_PATH = DATA_DIR / "golden_planned_payload.bin"

#: Seed honoring the paper's publication year.
SEED = 2012

PRIF_CONFIG = PrimacyConfig(
    chunk_bytes=4096,
    index_policy=IndexReusePolicy.CORRELATED,
)
PRCK_CONFIG = PrimacyConfig(chunk_bytes=4096)
PLANNED_CONFIG = PrimacyConfig(codec="pyzlib", chunk_bytes=8192)
#: The six perfbench variables, one 8 KiB chunk each.
PLANNED_DATASETS = (
    "obs_temp",
    "msg_sppm",
    "num_plasma",
    "gts_phi_l",
    "flash_velx",
    "msg_bt",
)
#: Two periodic chunks after those: (dataset, values in the repeated block).
PLANNED_TILES = (("obs_temp", 96), ("flash_velx", 64))
#: The planner's per-chunk decisions, in chunk order.
PLANNED_LABELS = (
    "pyzlib/hb2/col",
    "pyzlib-rle/hb2/col",
    "pyzlib-rle/hb2/col",
    "pyzlib/hb2/col",
    "pyzlib/hb2/col",
    "pyzlib/hb2/col",
    "pylzo/hb1/col",
    "pylzo/hb2/col",
)


def payload_bytes() -> bytes:
    """4096 float64 values: a smooth field with a regime change."""
    rng = np.random.default_rng(SEED)
    smooth = np.cumsum(rng.normal(0.0, 0.01, 3072)) + 300.0
    rough = rng.normal(0.0, 1e6, 1024)
    return np.concatenate([smooth, rough]).astype("<f8").tobytes()


def checkpoint_arrays() -> dict[int, dict[str, np.ndarray]]:
    """Two steps, mixed dtypes (exercises the word-width override)."""
    rng = np.random.default_rng(SEED + 1)
    temp0 = np.cumsum(rng.normal(size=1024)).reshape(16, 64)
    vel0 = rng.normal(size=512).astype("<f4").reshape(8, 8, 8)
    return {
        0: {"temp": temp0, "vel": vel0},
        1: {"temp": temp0 + 0.5, "vel": (vel0 * 2.0).astype("<f4")},
    }


def planned_payload_bytes() -> bytes:
    """Eight 8 KiB float64 chunks: one per dataset, then the tiles."""
    from repro.datasets import generate_bytes

    size = PLANNED_CONFIG.chunk_bytes
    chunks = [generate_bytes(name, size // 8, seed=SEED) for name in PLANNED_DATASETS]
    for name, values in PLANNED_TILES:
        block = generate_bytes(name, values, seed=SEED)
        chunks.append((block * (size // len(block) + 1))[:size])
    return b"".join(chunks)


def build_planned(payload: bytes) -> tuple[bytes, list[str]]:
    """The planned container of ``payload`` and the planner's decisions."""
    from repro.parallel import ParallelCompressor
    from repro.planner.candidates import PlannerConfig

    planner = PlannerConfig(base=PLANNED_CONFIG)
    with ParallelCompressor(planner=planner, workers=1) as planned:
        container, _ = planned.compress(payload)
        return container, [d.candidate.label for d in planned.decisions]


def build_prif(path: Path) -> None:
    from repro.storage import PrimacyFileWriter

    with PrimacyFileWriter(path, PRIF_CONFIG, durable=False) as writer:
        writer.write(payload_bytes())


def build_prck(path: Path) -> None:
    from repro.checkpoint import CheckpointWriter

    with CheckpointWriter(path, PRCK_CONFIG, durable=False) as writer:
        for step, variables in sorted(checkpoint_arrays().items()):
            writer.write_step(step, variables)


def main() -> None:
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    PAYLOAD_PATH.write_bytes(payload_bytes())
    build_prif(PRIF_PATH)
    build_prck(PRCK_PATH)
    PLANNED_PAYLOAD_PATH.write_bytes(planned_payload_bytes())
    container, labels = build_planned(PLANNED_PAYLOAD_PATH.read_bytes())
    assert tuple(labels) == PLANNED_LABELS, labels
    PLANNED_PATH.write_bytes(container)
    for p in (PAYLOAD_PATH, PRIF_PATH, PRCK_PATH, PLANNED_PAYLOAD_PATH, PLANNED_PATH):
        print(f"wrote {p} ({p.stat().st_size} bytes)")


if __name__ == "__main__":
    main()
