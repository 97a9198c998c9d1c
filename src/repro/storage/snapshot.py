"""Snapshot isolation for readers: immutable pinned views of a catalog.

The catalog publication discipline (:mod:`repro.storage.wal` replaces the
:class:`~repro.model.database.Database` object on every commit;
:class:`~repro.model.relation.ConstraintRelation` is immutable) means a
reader that captures a catalog reference sees a frozen, internally
consistent database for as long as it holds the reference — including
every derived structure built over it: columnar summary caches,
R*-tree boxes, and index versions all hang off the pinned relation
objects.

:class:`DatabaseSnapshot` makes that capture explicit and *observable*:
a version number for the swap protocol and a pin count so the server can
report (and tests can assert) how many readers still sit on a retired
snapshot during hot reload.  :class:`SnapshotManager` is the single
mutation point — :meth:`SnapshotManager.swap` atomically installs a new
catalog and returns the retired snapshot so the caller can drain it.

Everything here is thread-safe: the server touches snapshots both from
its event loop and from executor threads running queries.  The lock
discipline is machine-checked two ways: rule RT103 of ``repro devtools
lint`` verifies every mutation of the fields in ``__lock_registry__``
below sits inside the declared lock, and under ``REPRO_SANITIZE=1`` the
locks come from :func:`repro._concurrency.new_lock` tracked, with every
``pin()``/``unpin()`` reported to the RT502 balance checker.
"""

from __future__ import annotations

from typing import Callable

from .._concurrency import new_lock
from ..devtools import sanitize as _sanitize
from ..model.database import Database

#: RT103 annotation: these fields may only be mutated under the named
#: lock attribute (checked statically by ``repro devtools lint``).
__lock_registry__ = {
    "DatabaseSnapshot": {"_pins": "_lock", "_retired": "_lock"},
    "SnapshotManager": {"_current": "_lock"},
}


class DatabaseSnapshot:
    """One immutable, pinned view of a catalog.

    ``pin()``/``unpin()`` bracket a reader's use; ``readers`` is the
    live pin count.  A snapshot never blocks anything — retirement is
    cooperative (the swap happens immediately; old readers simply finish
    on the old object) — but the count is what lets a drain loop wait
    for quiescence and what proves, in the torn-read tests, that every
    reply was served entirely from one snapshot.
    """

    __slots__ = ("database", "version", "_pins", "_lock", "_retired")

    def __init__(self, database: Database, version: int) -> None:
        self.database = database
        self.version = version
        self._pins = 0
        self._lock = new_lock("storage.snapshot")
        self._retired = False

    @property
    def readers(self) -> int:
        """How many readers currently pin this snapshot."""
        with self._lock:
            return self._pins

    @property
    def retired(self) -> bool:
        """Whether a newer snapshot has been swapped in over this one."""
        with self._lock:
            return self._retired

    def pin(self) -> "DatabaseSnapshot":
        with self._lock:
            self._pins += 1
        _sanitize.note_pin(self)
        return self

    def unpin(self) -> None:
        with self._lock:
            if self._pins <= 0:
                raise RuntimeError(
                    f"snapshot v{self.version} unpinned more times than pinned"
                )
            self._pins -= 1
        _sanitize.note_unpin(self)

    def _retire(self) -> None:
        with self._lock:
            self._retired = True

    def __enter__(self) -> "DatabaseSnapshot":
        return self.pin()

    def __exit__(self, *exc_info: object) -> None:
        self.unpin()

    def __repr__(self) -> str:
        return (
            f"<DatabaseSnapshot v{self.version}: {len(self.database)} relations, "
            f"{self.readers} reader(s){', retired' if self.retired else ''}>"
        )


class SnapshotManager:
    """The single swap point between a live catalog and its readers.

    ``current()`` hands out the active snapshot; ``swap(database)``
    atomically installs a new one (bumping the version) and returns the
    retired snapshot.  ``drain(retired, timeout)`` waits for the retired
    snapshot's pin count to reach zero — the hot-reload path calls it so
    in-flight queries finish on their old view before the old catalog is
    released for collection.
    """

    def __init__(self, database: Database, version: int = 1) -> None:
        self._lock = new_lock("storage.snapshot_manager")
        self._current = DatabaseSnapshot(database, version)

    def current(self) -> DatabaseSnapshot:
        with self._lock:
            return self._current

    @property
    def version(self) -> int:
        return self.current().version

    def swap(self, database: Database) -> DatabaseSnapshot:
        """Install ``database`` as the new current snapshot; returns the
        retired one (its readers keep running on it undisturbed)."""
        with self._lock:
            retired = self._current
            self._current = DatabaseSnapshot(database, retired.version + 1)
        retired._retire()
        return retired

    def drain(
        self,
        retired: DatabaseSnapshot,
        timeout: float,
        *,
        poll: float = 0.005,
        wait: Callable[[float], None] | None = None,
    ) -> bool:
        """Wait until ``retired`` has no pinned readers; returns whether
        quiescence was reached within ``timeout`` seconds.  ``wait`` is
        injectable for tests (defaults to ``time.sleep``)."""
        import time

        sleep = wait if wait is not None else time.sleep
        deadline = time.monotonic() + timeout
        while retired.readers > 0:
            if time.monotonic() >= deadline:
                return False
            sleep(min(poll, max(0.0, deadline - time.monotonic())))
        return True


__all__ = ["DatabaseSnapshot", "SnapshotManager"]
