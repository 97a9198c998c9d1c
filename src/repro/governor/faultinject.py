"""Deterministic fault injection for the simulated storage layer.

A :class:`FaultPlan` is a *seeded, reproducible* schedule of storage
faults.  Wrappers apply it to each layer:

* :class:`FaultyBufferPool` — page misses (simulated disk reads) fail
  transiently (:class:`~repro.errors.TransientStorageError`) or
  permanently as corruption (:class:`~repro.errors.CorruptPageError`);
  hits never fail (the page is already resident);
* :func:`corrupt_database_text` — flips bytes inside ``tuple`` lines of
  a serialized ``.cdb`` text, which the checksum layer of
  :mod:`repro.storage.serialization` must surface as a structured
  :class:`~repro.errors.CorruptPageError` rather than garbage tuples.

Two scheduling modes compose:

* an explicit schedule — ``fail_ops={0: "transient", 3: "corrupt"}``
  keyed by the plan's global operation counter, for tests that need
  exact failure positions;
* seeded rates — ``transient_rate=0.2`` draws per operation from a
  private :class:`random.Random(seed)`, so the same seed over the same
  operation sequence always injects the same faults.

:func:`call_with_retries` is the matching recovery policy: bounded
attempts with exponential backoff, retrying *only*
:class:`~repro.errors.TransientStorageError` — corruption and other
permanent errors propagate immediately.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, TypeVar

from ..errors import CorruptPageError, StorageError, TransientStorageError
from ..obs import STORAGE_FAULTS_INJECTED, STORAGE_RETRIES, record

if TYPE_CHECKING:  # storage imports stay type-only: the storage layer
    # imports the governor through the constraint solver (budget
    # charging), and a runtime import here would close that loop into a
    # cycle.
    from ..storage.buffer_pool import BufferPool

T = TypeVar("T")

#: Fault kinds a plan can schedule.
TRANSIENT = "transient"
CORRUPT = "corrupt"
CRASH = "crash"
_KINDS = (TRANSIENT, CORRUPT, CRASH)


class SimulatedCrash(BaseException):
    """A simulated process kill at an exact write boundary.

    Deliberately a :class:`BaseException` (like ``KeyboardInterrupt``):
    a real ``kill -9`` cannot be caught by ``except Exception`` handlers
    in the write path, so neither can its simulation — no retry policy,
    taxonomy handler, or cleanup block may swallow it and keep writing.
    The crash-matrix harness catches it explicitly at the top of each
    scenario.
    """


class FaultPlan:
    """A deterministic schedule of injected storage faults.

    Every intercepted operation advances :attr:`operations`; the fault
    decision for operation *i* depends only on the seed, the explicit
    ``fail_ops`` schedule, and *i* — never on wall-clock or object
    identity — so a test that replays the same operations sees the same
    faults.

    ``max_transients`` bounds rate-driven transient faults so a retry
    loop is guaranteed to eventually see a success (explicitly scheduled
    faults are exempt: tests own those).
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        transient_rate: float = 0.0,
        corrupt_rate: float = 0.0,
        fail_ops: dict[int, str] | None = None,
        max_transients: int | None = None,
    ):
        for name, rate in (("transient_rate", transient_rate), ("corrupt_rate", corrupt_rate)):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate!r}")
        self._schedule = dict(fail_ops or {})
        for op, kind in self._schedule.items():
            if kind not in _KINDS:
                raise ValueError(f"unknown fault kind {kind!r} for op {op}")
        self._rng = random.Random(seed)
        self.transient_rate = transient_rate
        self.corrupt_rate = corrupt_rate
        self.max_transients = max_transients
        self.operations = 0
        self.injected_transients = 0
        self.injected_corruptions = 0

    def next_fault(self, layer: str = "storage") -> str | None:
        """The fault for the next operation: ``"transient"``,
        ``"corrupt"``, or ``None``.  Advances the operation counter."""
        op = self.operations
        self.operations += 1
        kind = self._schedule.get(op)
        if kind is None:
            # Always draw both so the stream position — hence determinism —
            # does not depend on which rates are enabled.
            transient_draw = self._rng.random()
            corrupt_draw = self._rng.random()
            if corrupt_draw < self.corrupt_rate:
                kind = CORRUPT
            elif transient_draw < self.transient_rate and (
                self.max_transients is None or self.injected_transients < self.max_transients
            ):
                kind = TRANSIENT
        if kind == TRANSIENT:
            self.injected_transients += 1
        elif kind == CORRUPT:
            self.injected_corruptions += 1
        if kind is not None:
            record(STORAGE_FAULTS_INJECTED)
        del layer  # reserved for layer-scoped schedules
        return kind

    def raise_for_next(self, layer: str, what: str) -> None:
        """Consult the schedule and raise the scheduled fault, if any."""
        kind = self.next_fault(layer)
        if kind == TRANSIENT:
            raise TransientStorageError(f"injected transient failure reading {what} ({layer})")
        if kind == CORRUPT:
            raise CorruptPageError(f"injected corruption reading {what} ({layer})")
        if kind == CRASH:
            raise SimulatedCrash(f"injected crash at {what} ({layer})")


# -- layer wrappers ------------------------------------------------------------


class FaultyBufferPool:
    """A :class:`~repro.storage.BufferPool` facade injecting faults on
    *misses* only: a hit serves the resident page and cannot fail."""

    def __init__(self, pool: "BufferPool", plan: FaultPlan):
        self._pool = pool
        self.plan = plan

    @property
    def stats(self):
        return self._pool.stats

    def bind_registry(self, registry) -> None:
        self._pool.bind_registry(registry)

    def access(self, page_id: object) -> bool:
        if page_id in self._pool:
            return self._pool.access(page_id)
        self.plan.raise_for_next("buffer_pool", f"page {page_id!r}")
        return self._pool.access(page_id)

    def __contains__(self, page_id: object) -> bool:
        return page_id in self._pool

    def __len__(self) -> int:
        return len(self._pool)

    def clear(self) -> None:
        self._pool.clear()


class CrashingFile:
    """A binary append handle that dies at an exact absolute byte offset.

    Writes pass through untouched until one would carry the file past
    ``crash_at_byte``; that write persists only the prefix up to the
    boundary (flushed, so it is really on disk — exactly what a torn
    write leaves behind) and raises :class:`SimulatedCrash`.  After the
    crash every further operation raises again: the process is dead.
    """

    def __init__(self, raw, crash_at_byte: int, *, plan: FaultPlan | None = None):
        if crash_at_byte < 0:
            raise ValueError(f"crash_at_byte must be >= 0, got {crash_at_byte}")
        self._raw = raw
        self._offset = raw.tell()  # append mode: current end of file
        self.crash_at_byte = crash_at_byte
        self.plan = plan
        self.crashed = False

    def _check_alive(self) -> None:
        if self.crashed:
            raise SimulatedCrash(
                f"write after crash at byte {self.crash_at_byte} (process is dead)"
            )

    def write(self, data: bytes) -> int:
        self._check_alive()
        if self.plan is not None:
            # Plan-driven crashes fire *before* the bytes land, modelling
            # a kill between the syscall being issued and serviced.
            kind = self.plan.next_fault("wal")
            if kind == CRASH:
                self.crashed = True
                self._raw.flush()
                raise SimulatedCrash(f"scheduled crash before write at byte {self._offset}")
        allowed = self.crash_at_byte - self._offset
        if len(data) <= allowed:
            self._raw.write(data)
            self._offset += len(data)
            return len(data)
        prefix = data[: max(0, allowed)]
        if prefix:
            self._raw.write(prefix)
            self._offset += len(prefix)
        self.crashed = True
        self._raw.flush()  # the torn prefix is on disk, like a real partial write
        raise SimulatedCrash(
            f"crash at byte {self.crash_at_byte}: write of {len(data)} bytes torn "
            f"after {len(prefix)}"
        )

    def flush(self) -> None:
        self._check_alive()
        self._raw.flush()

    def fileno(self) -> int:
        self._check_alive()
        return self._raw.fileno()

    def close(self) -> None:
        # Closing the dead handle is allowed: the harness cleans up.
        self._raw.close()


def FaultyWAL(
    path,
    *,
    crash_at_byte: int | None = None,
    plan: FaultPlan | None = None,
    fsync: bool = True,
):
    """A :class:`~repro.storage.wal.WriteAheadLog` whose append handle
    crashes at ``crash_at_byte`` (an absolute file offset) and/or on a
    plan-scheduled ``"crash"`` fault.  The crash-matrix tests sweep
    ``crash_at_byte`` over every offset of a reference run and assert
    recovery lands on the last committed state.

    Recovery-on-open runs *before* the faulty handle is installed (you
    crash while writing, not while recovering), so a ``FaultyWAL`` over a
    previously torn log first truncates the tail like any other open.
    """
    from ..storage.wal import WriteAheadLog  # runtime import: see module note

    def wrapper(raw):
        return CrashingFile(
            raw,
            crash_at_byte if crash_at_byte is not None else (1 << 62),
            plan=plan,
        )

    return WriteAheadLog(path, fsync=fsync, file_wrapper=wrapper)


def corrupt_database_text(text: str, plan: FaultPlan) -> str:
    """Deterministically corrupt one serialized ``tuple`` line per
    corruption the plan schedules (one ``next_fault`` draw per tuple
    line).  The mutation swaps a digit inside the constraint part, the
    kind of bit-rot only a checksum catches: the line still parses, but
    into a different formula."""
    lines = text.split("\n")
    for i, line in enumerate(lines):
        if not line.startswith("tuple"):
            continue
        if plan.next_fault("serialization") != CORRUPT:
            continue
        digits = [j for j, ch in enumerate(line) if ch.isdigit()]
        if not digits:
            continue
        j = digits[len(digits) // 2]
        flipped = "3" if line[j] != "3" else "7"
        lines[i] = line[:j] + flipped + line[j + 1 :]
    return "\n".join(lines)


# -- bounded retry -------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry-with-backoff for transient storage errors.

    ``attempts`` counts total tries (so ``attempts=3`` retries twice);
    delays grow ``base_delay * multiplier**retry`` capped at
    ``max_delay``.  ``sleep`` is injectable so tests run instantly and
    can assert the exact backoff sequence.
    """

    attempts: int = 3
    base_delay: float = 0.001
    multiplier: float = 2.0
    max_delay: float = 0.1
    sleep: Callable[[float], None] = field(default=time.sleep, repr=False)

    def __post_init__(self):
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")
        if self.base_delay < 0 or self.max_delay < 0 or self.multiplier < 1:
            raise ValueError("delays must be non-negative and multiplier >= 1")

    def delay_for(self, retry: int) -> float:
        return min(self.base_delay * self.multiplier**retry, self.max_delay)


def call_with_retries(operation: Callable[[], T], policy: RetryPolicy | None = None) -> T:
    """Run ``operation``, retrying :class:`TransientStorageError` up to
    the policy's attempt bound with exponential backoff.  Permanent
    :class:`StorageError`\\ s (corruption included) propagate immediately;
    after the final attempt the last transient error propagates, so a
    persistent "transient" fault still fails loudly rather than looping."""
    policy = policy or RetryPolicy()
    last: TransientStorageError | None = None
    for retry in range(policy.attempts):
        try:
            return operation()
        except TransientStorageError as exc:
            last = exc
            if retry + 1 < policy.attempts:
                record(STORAGE_RETRIES)
                policy.sleep(policy.delay_for(retry))
    assert last is not None
    raise last


__all__ = [
    "CORRUPT",
    "CRASH",
    "TRANSIENT",
    "CorruptPageError",
    "CrashingFile",
    "FaultPlan",
    "FaultyBufferPool",
    "FaultyWAL",
    "RetryPolicy",
    "SimulatedCrash",
    "StorageError",
    "TransientStorageError",
    "call_with_retries",
    "corrupt_database_text",
]
