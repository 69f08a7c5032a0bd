"""The on-disk mechanics shared by both content-addressed stores.

:class:`ObjectStore` owns one store directory::

    objects/<k2>/<key><SUFFIX>       one entry per content address
    tmp/<key>.<pid>.<tag><SUFFIX>    entries being written
    quarantine/<key>.<tag><SUFFIX>   entries that failed verification

An entry is a file (:class:`~repro.store.stages.StageStore`, ``.json``)
or a directory (:class:`~repro.store.store.StudyStore`, one archive);
nothing here reads its contents.  Entries are built under ``tmp/`` and
published with one ``os.rename``, so a reader sees a whole entry or
none, and a killed writer leaves only debris in ``tmp/`` — named with
its pid, so :meth:`ObjectStore.gc` reaps it once that process is dead.
Liveness is checked in the caller's pid namespace, so every writer must
share it (one host, one container).

Recency is the entry's own mtime: every hit and every idempotent re-put
stamps it, and eviction and :meth:`ObjectStore.keys` order entries by
``(mtime_ns, key)``.  There is no index to rebuild or to lose, so
concurrent writers need no coordination beyond the rename.  On a
filesystem with coarse timestamps, entries stamped within one tick fall
back to key order.
"""

from __future__ import annotations

import os
import shutil
import time
import uuid
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from pathlib import Path

from repro.parallel.shm import pid_alive


@dataclass(frozen=True)
class StoreStats:
    """A point-in-time summary of one store directory."""

    entries: int
    total_bytes: int

    def to_json(self) -> dict:
        """JSON-serialisable form."""
        return {"entries": self.entries, "total_bytes": self.total_bytes}


def _entry_bytes(path: Path) -> int:
    """The size of a file entry, or of the files in a directory entry."""
    if path.is_dir():
        return sum(p.stat().st_size for p in path.iterdir() if p.is_file())
    return path.stat().st_size


def _remove(path: Path) -> None:
    if path.is_dir():
        shutil.rmtree(path, ignore_errors=True)
    else:
        path.unlink(missing_ok=True)


class ObjectStore:
    """Layout, atomic publish, quarantine, LRU gc and stats for one root.

    Subclasses add a key scheme and a codec.  ``SUFFIX`` ends every entry
    name; :meth:`_on_event` counts each entry gc removes (``evictions``,
    ``quarantine_pruned`` or ``staging_reaped``).  The ``max_*`` bounds
    are the defaults :meth:`gc` falls back to.
    """

    SUFFIX = ""

    def __init__(
        self,
        root: str | Path,
        max_entries: int | None = None,
        max_bytes: int | None = None,
        max_age_s: float | None = None,
        max_quarantine_entries: int | None = None,
        max_quarantine_age_s: float | None = None,
    ) -> None:
        self.root = Path(root)
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.max_age_s = max_age_s
        self.max_quarantine_entries = max_quarantine_entries
        self.max_quarantine_age_s = max_quarantine_age_s

    def _on_event(self, event: str) -> None:
        """Count one entry removed by :meth:`gc`."""

    @property
    def quarantine_dir(self) -> Path:
        """Where entries that failed verification are parked."""
        return self.root / "quarantine"

    def entry_path(self, key: str) -> Path:
        """Where the entry with content address ``key`` lives."""
        return self.root / "objects" / key[:2] / f"{key}{self.SUFFIX}"

    def contains_key(self, key: str) -> bool:
        """Whether a published entry for ``key`` exists (no LRU touch)."""
        return self.entry_path(key).exists()

    def touch(self, key: str) -> None:
        """Mark ``key`` most recently used.

        Best effort: an entry just evicted, or one in a store this process
        may not write, keeps the recency it had.
        """
        now = time.time_ns()
        try:
            os.utime(self.entry_path(key), ns=(now, now))
        except OSError:
            pass

    def publish(self, key: str, write: Callable[[Path], None]) -> int | None:
        """Build an entry with ``write(staging)`` under ``tmp/``, then rename it into place.

        Returns the entry's size in bytes, or ``None`` when ``key`` is
        already stored (an idempotent put: ``write`` is not called and
        the entry counts as used) or another writer published it first
        (this copy is discarded).  A failing ``write`` leaves no debris.
        """
        if self.contains_key(key):
            self.touch(key)
            return None
        staging = self.root / "tmp" / f"{key}.{os.getpid()}.{uuid.uuid4().hex[:8]}{self.SUFFIX}"
        staging.parent.mkdir(parents=True, exist_ok=True)
        try:
            write(staging)
            size = _entry_bytes(staging)
        except BaseException:
            _remove(staging)
            raise
        final = self.entry_path(key)
        final.parent.mkdir(parents=True, exist_ok=True)
        try:
            os.rename(staging, final)
        except OSError:
            # Lost a publish race: another writer landed the same content.
            _remove(staging)
            size = None
        self.touch(key)
        return size

    def quarantine(self, key: str, error: Exception) -> None:
        """Move a bad entry aside so the next access recomputes it.

        A directory entry also records ``error`` in ``quarantine_reason.txt``.
        """
        path = self.entry_path(key)
        destination = self.quarantine_dir / f"{key}.{uuid.uuid4().hex[:8]}{self.SUFFIX}"
        destination.parent.mkdir(parents=True, exist_ok=True)
        try:
            os.rename(path, destination)
            if destination.is_dir():
                (destination / "quarantine_reason.txt").write_text(
                    f"{type(error).__name__}: {error}\n"
                )
        except OSError:
            _remove(path)

    # -- maintenance -----------------------------------------------------------

    def _entries(self) -> list[Path]:
        objects = self.root / "objects"
        if not objects.exists():
            return []
        return [
            path
            for bucket in objects.iterdir()
            for path in bucket.iterdir()
            if path.name.endswith(self.SUFFIX)
        ]

    def _key(self, path: Path) -> str:
        return path.name[: len(path.name) - len(self.SUFFIX)]

    def keys(self) -> list[str]:
        """All stored content addresses, least recently used first."""
        ordered = sorted((path.stat().st_mtime_ns, path.name, path) for path in self._entries())
        return [self._key(path) for _, _, path in ordered]

    def stats(self) -> StoreStats:
        """Entry count and total size (staging and quarantine excluded)."""
        entries = self._entries()
        return StoreStats(len(entries), sum(_entry_bytes(path) for path in entries))

    def gc(
        self,
        max_entries: int | None = None,
        max_bytes: int | None = None,
        max_age_s: float | None = None,
        max_quarantine_entries: int | None = None,
        max_quarantine_age_s: float | None = None,
    ) -> list[str]:
        """Evict least-recently-used entries until within the given bounds.

        ``None`` bounds fall back to the store's configured limits; all
        ``None`` evicts nothing.  Entries unused for longer than
        ``max_age_s`` go first, then the least recently used until the
        count and byte bounds hold.  Quarantined entries are pruned the
        same way by the quarantine bounds, and ``tmp/`` debris of dead
        writers is always reaped.  Returns the evicted keys, oldest first.
        """

        def pick(bound, default):
            return bound if bound is not None else default

        self._reap_staging()
        self._evict(
            lambda: self.quarantine_dir.iterdir() if self.quarantine_dir.exists() else (),
            "quarantine_pruned",
            max_entries=pick(max_quarantine_entries, self.max_quarantine_entries),
            max_age_s=pick(max_quarantine_age_s, self.max_quarantine_age_s),
        )
        evicted = self._evict(
            self._entries,
            "evictions",
            max_entries=pick(max_entries, self.max_entries),
            max_bytes=pick(max_bytes, self.max_bytes),
            max_age_s=pick(max_age_s, self.max_age_s),
        )
        return [self._key(path) for path in evicted]

    def _evict(
        self,
        listing: Callable[[], Iterable[Path]],
        event: str,
        max_entries: int | None = None,
        max_bytes: int | None = None,
        max_age_s: float | None = None,
    ) -> list[Path]:
        """Remove the oldest of ``listing()`` by mtime until within the bounds."""
        if max_entries is None and max_bytes is None and max_age_s is None:
            return []
        ordered = sorted(
            (
                path.stat().st_mtime_ns,
                path.name,
                path,
                _entry_bytes(path) if max_bytes is not None else 0,
            )
            for path in listing()
        )
        cutoff_ns = time.time_ns() - max_age_s * 1e9 if max_age_s is not None else None
        total = sum(size for *_, size in ordered)
        evicted: list[Path] = []
        for mtime_ns, _, path, size in ordered:
            if not (
                (cutoff_ns is not None and mtime_ns < cutoff_ns)
                or (max_entries is not None and len(ordered) - len(evicted) > max_entries)
                or (max_bytes is not None and total > max_bytes)
            ):
                break
            _remove(path)
            total -= size
            evicted.append(path)
            self._on_event(event)
        return evicted

    def _reap_staging(self) -> None:
        """Remove ``tmp/`` debris whose writer (the pid in its name) is dead."""
        staging = self.root / "tmp"
        for path in staging.iterdir() if staging.exists() else ():
            parts = path.name.split(".")
            pid = int(parts[1]) if len(parts) > 2 and parts[1].isdigit() else None
            if pid is not None and pid != os.getpid() and not pid_alive(pid):
                _remove(path)
                self._on_event("staging_reaped")
