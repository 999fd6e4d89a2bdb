"""Opt-in runtime sanitizer for shared-memory lifecycle (``REPRO_SANITIZE=1``).

The static rule (PL101) proves the *code* releases what it acquires;
this module proves the *process* did.  When ``REPRO_SANITIZE`` is set
to anything but ``0``/empty, the parallel engine routes every
``SharedMemory`` acquisition and every buffer view through the global
:class:`ResourceLedger`:

* each segment create/attach is recorded with its size and origin;
* each close/unlink removes it;
* each memoryview taken over a segment's buffer is tracked until
  released;
* :meth:`ResourceLedger.report` (called at pool shutdown and, as a
  backstop, at interpreter exit) warns about every segment or view
  still live -- i.e. leaked.

The ledger is intentionally tolerant: double-untrack and unknown names
are ignored, so it can never turn a healthy run into a failing one.
Overhead is a dict operation per segment event, which is why it is safe
to leave on for entire test-suite runs.
"""

from __future__ import annotations

import atexit
import os
import threading
import warnings
from contextlib import contextmanager
from dataclasses import dataclass

__all__ = [
    "enabled",
    "ledger",
    "reset",
    "ResourceLedger",
    "SanitizeLeakWarning",
]


class SanitizeLeakWarning(UserWarning):
    """A SharedMemory segment or memoryview outlived its owner."""


def enabled() -> bool:
    """Whether the sanitizer is switched on for this process."""
    return os.environ.get("REPRO_SANITIZE", "") not in ("", "0")


@dataclass(frozen=True)
class SegmentRecord:
    """One live shared-memory segment."""

    name: str
    size: int
    origin: str
    owner: int  # id() of the acquiring object, 0 for anonymous
    pid: int = 0  # process that recorded it (fork-inherited entries differ)


@dataclass(frozen=True)
class ViewRecord:
    """One live tracked memoryview."""

    token: int
    nbytes: int
    origin: str
    pid: int = 0


class ResourceLedger:
    """Thread-safe registry of live segments and views."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._segments: dict[str, SegmentRecord] = {}
        self._views: dict[int, ViewRecord] = {}
        self._next_token = 0

    # -- segments -------------------------------------------------------

    def track_segment(
        self, name: str, size: int, *, origin: str, owner: int = 0
    ) -> None:
        """Record a created/attached segment."""
        with self._lock:
            self._segments[name] = SegmentRecord(
                name, size, origin, owner, os.getpid()
            )

    def untrack_segment(self, name: str) -> None:
        """Record a close/unlink; unknown names are ignored."""
        with self._lock:
            self._segments.pop(name, None)

    def live_segments(self, owner: int | None = None) -> list[SegmentRecord]:
        """Segments tracked by *this process* (optionally one owner's).

        Fork-inherited entries belong to the parent: a worker must not
        report (let alone touch) segments it merely attached to before
        the fork.
        """
        pid = os.getpid()
        with self._lock:
            records = [r for r in self._segments.values() if r.pid == pid]
        if owner is not None:
            records = [r for r in records if r.owner == owner]
        return records

    # -- memoryviews ----------------------------------------------------

    def track_view(self, nbytes: int, *, origin: str) -> int:
        """Record a view; returns the token for :meth:`untrack_view`."""
        with self._lock:
            self._next_token += 1
            token = self._next_token
            self._views[token] = ViewRecord(token, nbytes, origin, os.getpid())
        return token

    def untrack_view(self, token: int) -> None:
        """Record a release; unknown tokens are ignored."""
        with self._lock:
            self._views.pop(token, None)

    def live_views(self) -> list[ViewRecord]:
        """Views tracked by this process."""
        pid = os.getpid()
        with self._lock:
            return [v for v in self._views.values() if v.pid == pid]

    @contextmanager
    def tracked_view(self, shm, *, origin: str):
        """Yield a released-on-exit view over ``shm``'s buffer.

        The yielded view is a fresh slice (not ``shm.buf`` itself), so
        releasing it never interferes with the segment's own mapping.
        """
        view = shm.buf[:]
        token = self.track_view(view.nbytes, origin=origin)
        try:
            yield view
        finally:
            view.release()
            self.untrack_view(token)

    # -- reporting ------------------------------------------------------

    def report(self, where: str, *, owner: int | None = None) -> list[str]:
        """Warn about (and return messages for) everything still live."""
        messages = []
        for seg in self.live_segments(owner):
            messages.append(
                f"REPRO_SANITIZE: leaked SharedMemory segment "
                f"{seg.name!r} ({seg.size} bytes, origin={seg.origin}) "
                f"still live at {where}"
            )
        if owner is None:
            for view in self.live_views():
                messages.append(
                    f"REPRO_SANITIZE: unreleased memoryview "
                    f"({view.nbytes} bytes, origin={view.origin}) "
                    f"still live at {where}"
                )
        for message in messages:
            warnings.warn(message, SanitizeLeakWarning, stacklevel=2)
        return messages

    def clear(self) -> None:
        """Forget everything (test isolation)."""
        with self._lock:
            self._segments.clear()
            self._views.clear()


_LEDGER: ResourceLedger | None = None
_LEDGER_LOCK = threading.Lock()


def _reinit_lock_after_fork() -> None:  # pragma: no cover - fork hook
    # fork() copies the lock in whatever state the parent held it;
    # if another parent thread was inside ledger() at that instant the
    # child would deadlock on first use.  Give the child a fresh lock
    # (single-threaded at that point, so this is race-free).
    global _LEDGER_LOCK
    _LEDGER_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):  # pragma: no branch - posix in CI
    os.register_at_fork(after_in_child=_reinit_lock_after_fork)


def ledger() -> ResourceLedger:
    """The process-wide ledger (created on first use)."""
    global _LEDGER
    with _LEDGER_LOCK:
        if _LEDGER is None:
            _LEDGER = ResourceLedger()
            atexit.register(_report_at_exit)
        return _LEDGER


def reset() -> None:
    """Drop the global ledger's state (test isolation)."""
    with _LEDGER_LOCK:
        if _LEDGER is not None:
            _LEDGER.clear()


def _report_at_exit() -> None:  # pragma: no cover - interpreter teardown
    if _LEDGER is not None and enabled():
        _LEDGER.report("interpreter exit")
