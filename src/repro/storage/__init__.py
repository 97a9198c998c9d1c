"""Simulated paged storage: the substrate behind the "disk access" metric.

Public surface:

* :class:`PageConfig` — page sizing.
* :class:`BufferPool` — LRU page cache with hit/miss statistics.
* :func:`save_database` / :func:`load_database` / :func:`dumps` /
  :func:`loads` — the ``.cdb`` text format.
* :class:`WriteAheadLog` / :class:`DurableDatabase` / :func:`open_durable`
  — the checksummed write-ahead log and crash-recovering open
  (:mod:`repro.storage.wal`).
* :class:`DatabaseSnapshot` / :class:`SnapshotManager` — immutable
  catalog snapshots for readers during hot reload
  (:mod:`repro.storage.snapshot`).
"""

from .buffer_pool import BufferPool, BufferPoolStatistics
from .pages import PageConfig
from .serialization import dumps, load_database, loads, save_database, serialize_tuple
from .snapshot import DatabaseSnapshot, SnapshotManager
from .wal import (
    DurableDatabase,
    IngestTransaction,
    RecoveryReport,
    WalRecord,
    WriteAheadLog,
    open_durable,
    wal_path_for,
)

__all__ = [
    "BufferPool",
    "BufferPoolStatistics",
    "DatabaseSnapshot",
    "DurableDatabase",
    "IngestTransaction",
    "PageConfig",
    "RecoveryReport",
    "SnapshotManager",
    "WalRecord",
    "WriteAheadLog",
    "dumps",
    "load_database",
    "loads",
    "open_durable",
    "save_database",
    "serialize_tuple",
    "wal_path_for",
]
