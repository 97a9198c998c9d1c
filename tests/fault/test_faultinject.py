"""Deterministic storage fault injection: failures are structured, bounded
retries recover transients, corruption is caught — and nothing hangs."""

import pytest

from repro.constraints import Conjunction, le
from repro.constraints.terms import var
from repro.errors import CorruptPageError, StorageError, TransientStorageError
from repro.governor import (
    FaultPlan,
    FaultyBufferPool,
    RetryPolicy,
    call_with_retries,
    corrupt_database_text,
)
from repro.model.database import Database
from repro.model.relation import ConstraintRelation
from repro.model.schema import Schema, constraint, relational
from repro.model.tuples import HTuple
from repro.storage import BufferPool, dumps, loads


def _relation(rows: int = 40) -> ConstraintRelation:
    x = var("x")
    schema = Schema([relational("rid"), constraint("x")])
    tuples = [
        HTuple(schema, {"rid": f"r{i}"}, Conjunction([le(i, x), le(x, i + 1)]))
        for i in range(rows)
    ]
    return ConstraintRelation(schema, tuples, "R")


class TestFaultPlanDeterminism:
    def test_same_seed_same_schedule(self):
        draws = []
        for _ in range(2):
            plan = FaultPlan(seed=7, transient_rate=0.3, corrupt_rate=0.1)
            draws.append([plan.next_fault() for _ in range(200)])
        assert draws[0] == draws[1]
        assert "transient" in draws[0] and "corrupt" in draws[0]

    def test_rate_independent_stream_position(self):
        # Adding a corrupt rate must not shift *which* operations draw
        # transient faults (both draws happen every operation).
        base = FaultPlan(seed=3, transient_rate=0.5)
        mixed = FaultPlan(seed=3, transient_rate=0.5, corrupt_rate=0.0)
        assert [base.next_fault() for _ in range(100)] == [
            mixed.next_fault() for _ in range(100)
        ]

    def test_explicit_schedule_wins(self):
        plan = FaultPlan(seed=0, fail_ops={0: "transient", 2: "corrupt"})
        assert plan.next_fault() == "transient"
        assert plan.next_fault() is None
        assert plan.next_fault() == "corrupt"
        assert plan.injected_transients == 1
        assert plan.injected_corruptions == 1

    def test_max_transients_bounds_rate_faults(self):
        plan = FaultPlan(seed=1, transient_rate=1.0, max_transients=3)
        faults = [plan.next_fault() for _ in range(10)]
        assert faults[:3] == ["transient"] * 3
        assert faults[3:] == [None] * 7

    def test_rejects_bad_rates_and_kinds(self):
        with pytest.raises(ValueError):
            FaultPlan(transient_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(fail_ops={0: "meltdown"})


class TestFaultyBufferPool:
    def test_hits_never_fault(self):
        pool = BufferPool(capacity=8)
        faulty = FaultyBufferPool(pool, FaultPlan(transient_rate=1.0, max_transients=None))
        with pytest.raises(TransientStorageError):
            faulty.access("p1")  # miss: faulted
        pool.access("p1")  # page becomes resident
        assert faulty.access("p1") is True  # hit: served, no fault drawn


class TestRetries:
    def test_transient_then_success(self):
        plan = FaultPlan(fail_ops={0: "transient", 1: "transient"})
        pool = BufferPool(capacity=8)
        faulty = FaultyBufferPool(pool, plan)
        delays: list[float] = []
        policy = RetryPolicy(attempts=3, base_delay=0.01, sleep=delays.append)
        hit = call_with_retries(lambda: faulty.access("p0"), policy)
        assert hit is False and "p0" in pool  # the third try read the page in
        assert delays == [0.01, 0.02]  # exponential backoff, sleep injected

    def test_backoff_is_capped(self):
        policy = RetryPolicy(attempts=8, base_delay=0.01, multiplier=4.0, max_delay=0.05)
        assert policy.delay_for(0) == 0.01
        assert policy.delay_for(5) == 0.05

    def test_retry_bound_reraises_last_transient(self):
        calls = []

        def always_failing():
            calls.append(1)
            raise TransientStorageError("still down")

        policy = RetryPolicy(attempts=3, sleep=lambda _: None)
        with pytest.raises(TransientStorageError):
            call_with_retries(always_failing, policy)
        assert len(calls) == 3  # bounded: no infinite retry loop

    def test_corruption_not_retried(self):
        plan = FaultPlan(fail_ops={0: "corrupt"})
        faulty = FaultyBufferPool(BufferPool(capacity=8), plan)
        with pytest.raises(CorruptPageError):
            call_with_retries(lambda: faulty.access("p0"), RetryPolicy(sleep=lambda _: None))
        assert plan.operations == 1  # a permanent fault gets exactly one try

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)


class TestSerializationCorruption:
    def test_checksum_catches_flipped_digit(self):
        database = Database({"R": _relation(10)})
        text = dumps(database)
        corrupted = corrupt_database_text(text, FaultPlan(fail_ops={3: "corrupt"}))
        assert corrupted != text  # a tuple line actually changed
        with pytest.raises(CorruptPageError) as excinfo:
            loads(corrupted)
        assert "checksum mismatch" in str(excinfo.value)
        assert isinstance(excinfo.value, StorageError)  # structured, catchable

    def test_clean_text_round_trips(self):
        database = Database({"R": _relation(10)})
        text = corrupt_database_text(dumps(database), FaultPlan())  # no faults drawn
        assert loads(text)["R"] == database["R"]

    def test_dropped_tuple_line_detected_by_count(self):
        database = Database({"R": _relation(10)})
        lines = dumps(database).split("\n")
        del lines[next(i for i, line in enumerate(lines) if line.startswith("tuple"))]
        with pytest.raises(CorruptPageError) as excinfo:
            loads("\n".join(lines))
        assert "truncated or corrupted" in str(excinfo.value)

    def test_files_without_checksums_still_load(self):
        # Backwards compatibility: pre-checksum files have no checksum line.
        database = Database({"R": _relation(10)})
        lines = [
            line for line in dumps(database).split("\n") if not line.startswith("checksum")
        ]
        assert loads("\n".join(lines))["R"] == database["R"]
