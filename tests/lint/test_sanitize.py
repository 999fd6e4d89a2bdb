"""Runtime sanitizer: ledger bookkeeping and parallel-engine integration."""

from __future__ import annotations

import warnings
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.lint import sanitize
from repro.lint.sanitize import ResourceLedger, SanitizeLeakWarning


@pytest.fixture(autouse=True)
def _clean_global_ledger():
    sanitize.reset()
    yield
    sanitize.reset()


class TestEnabled:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert not sanitize.enabled()
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert not sanitize.enabled()

    def test_enabled_by_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert sanitize.enabled()


class TestLedger:
    def test_track_untrack_segments(self):
        led = ResourceLedger()
        led.track_segment("seg-a", 1024, origin="test", owner=1)
        led.track_segment("seg-b", 2048, origin="test", owner=2)
        assert {r.name for r in led.live_segments()} == {"seg-a", "seg-b"}
        assert {r.name for r in led.live_segments(owner=1)} == {"seg-a"}
        led.untrack_segment("seg-a")
        assert {r.name for r in led.live_segments()} == {"seg-b"}

    def test_report_warns_on_leaks(self):
        led = ResourceLedger()
        led.track_segment("leaked", 4096, origin="test", owner=0)
        with pytest.warns(SanitizeLeakWarning, match="leaked"):
            messages = led.report("unit test")
        assert len(messages) == 1

    def test_report_silent_when_clean(self):
        led = ResourceLedger()
        led.track_segment("seg", 64, origin="test", owner=0)
        led.untrack_segment("seg")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert led.report("unit test") == []

    def test_tracked_view_releases(self):
        led = ResourceLedger()
        shm = shared_memory.SharedMemory(create=True, size=4096)
        try:
            with led.tracked_view(shm, origin="test") as buf:
                buf[:3] = b"abc"
                assert led.live_views()
            assert led.live_views() == []
            assert bytes(shm.buf[:3]) == b"abc"
        finally:
            shm.close()
            shm.unlink()

    def test_tracked_view_releases_on_error(self):
        led = ResourceLedger()
        shm = shared_memory.SharedMemory(create=True, size=64)
        try:
            with pytest.raises(RuntimeError):
                with led.tracked_view(shm, origin="test"):
                    raise RuntimeError("boom")
            assert led.live_views() == []
        finally:
            shm.close()
            shm.unlink()

    def test_clear(self):
        led = ResourceLedger()
        led.track_segment("seg", 64, origin="test", owner=0)
        led.clear()
        assert led.live_segments() == []


class TestEngineIntegration:
    """REPRO_SANITIZE=1 parallel-engine runs must report zero leaks."""

    @pytest.fixture
    def payload(self, rng):
        # Larger than the engine's small-payload pickle threshold so the
        # SharedMemory fan-out path is exercised.
        return np.asarray(rng.normal(size=16384), dtype="<f8").tobytes()

    def test_engine_round_trip_leaves_no_leaks(self, monkeypatch, payload):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        from repro.core.primacy import PrimacyConfig
        from repro.parallel.pool import ParallelCompressor

        cfg = PrimacyConfig(chunk_bytes=16 * 1024)
        with warnings.catch_warnings():
            warnings.simplefilter("error", SanitizeLeakWarning)
            with ParallelCompressor(cfg, workers=2) as comp:
                out, _ = comp.compress(payload)
                assert comp.decompress(out) == payload
        assert sanitize.ledger().live_segments() == []
        assert sanitize.ledger().live_views() == []

    def test_engine_close_reports_deliberate_leak(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        from repro.core.primacy import PrimacyConfig
        from repro.parallel.engine import ParallelEngine

        cfg = PrimacyConfig(chunk_bytes=16 * 1024)
        engine = ParallelEngine(cfg, workers=1)
        # Simulate a segment the engine lost track of.
        sanitize.ledger().track_segment(
            "phantom-seg", 4096, origin="test", owner=id(engine)
        )
        with pytest.warns(SanitizeLeakWarning, match="phantom-seg"):
            engine.close()

    def test_disabled_engine_does_not_touch_ledger(self, monkeypatch, payload):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        from repro.core.primacy import PrimacyConfig
        from repro.parallel.pool import ParallelCompressor

        cfg = PrimacyConfig(chunk_bytes=16 * 1024)
        with ParallelCompressor(cfg, workers=2) as comp:
            comp.compress(payload)
        assert sanitize.ledger().live_segments() == []
        assert sanitize.ledger().live_views() == []
