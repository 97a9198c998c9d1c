"""Unit tests for the query resource governor (repro.governor.budget)."""

import time

import pytest

from repro.constraints import Conjunction, le
from repro.constraints.terms import var
from repro.errors import (
    DeadlineExceeded,
    IOBudgetExceeded,
    OutputLimitExceeded,
    SolverBudgetExceeded,
)
from repro.governor import (
    Budget,
    ProducerGuard,
    charge,
    charge_io,
    checkpoint,
    current_budget,
)
from repro.model.database import Database
from repro.model.relation import ConstraintRelation
from repro.model.schema import Schema, constraint
from repro.model.tuples import HTuple
from repro.query import QuerySession


class TestConstruction:
    @pytest.mark.parametrize("knob", ["solver_steps", "dnf_clauses", "output_tuples", "io_accesses"])
    @pytest.mark.parametrize("bad", [0, -1, -100, 2.5, True, "10"])
    def test_rejects_non_positive_and_non_int_limits(self, knob, bad):
        with pytest.raises(ValueError):
            Budget(**{knob: bad})

    @pytest.mark.parametrize("bad", [0, -0.5])
    def test_rejects_non_positive_deadline(self, bad):
        with pytest.raises(ValueError):
            Budget(deadline_seconds=bad)

    def test_rejects_unknown_exhaustion_mode(self):
        with pytest.raises(ValueError):
            Budget(on_exhausted="explode")

    def test_unlimited_by_default(self):
        budget = Budget()
        assert all(limit is None for limit in budget.limits.values())
        assert budget.deadline_seconds is None

    def test_remaining_floors_at_zero(self):
        budget = Budget(solver_steps=10)
        with budget.activate():
            with pytest.raises(SolverBudgetExceeded):
                budget.charge("solver_steps", 25)
            assert budget.remaining("solver_steps") == 0
            assert budget.remaining("dnf_clauses") is None


class TestActivation:
    def test_module_hooks_are_noops_when_ungoverned(self):
        assert current_budget() is None
        checkpoint()
        charge("solver_steps", 10)
        charge_io(10)  # nothing to charge against, nothing raised

    def test_activate_pushes_and_pops(self):
        budget = Budget(solver_steps=5)
        with budget.activate():
            assert current_budget() is budget
            charge("solver_steps", 3)
        assert current_budget() is None
        assert budget.consumed["solver_steps"] == 3

    def test_activation_does_not_nest_onto_itself(self):
        budget = Budget()
        with budget.activate():
            with pytest.raises(ValueError):
                with budget.activate():
                    pass

    def test_each_window_starts_fresh(self):
        budget = Budget(output_tuples=5)
        with budget.activate():
            charge("output_tuples", 4)
        with budget.activate():
            assert budget.consumed["output_tuples"] == 0
            charge("output_tuples", 4)  # would exceed without the reset

    def test_io_budget_raises_with_snapshot(self):
        budget = Budget(io_accesses=2)
        with budget.activate():
            charge_io()
            charge_io()
            with pytest.raises(IOBudgetExceeded) as excinfo:
                charge_io()
        assert excinfo.value.snapshot["consumed.io_accesses"] == 3


class TestExpiredDeadline:
    """Regressions for the lifecycle bugs around an elapsed deadline."""

    @staticmethod
    def _expired_budget(**kwargs):
        budget = Budget(deadline_seconds=0.001, **kwargs)
        stack = budget.activate()
        stack.__enter__()
        time.sleep(0.01)  # run the 1ms deadline out
        return budget, stack

    def test_snapshot_remaining_seconds_clamped_at_zero(self):
        budget, stack = self._expired_budget()
        try:
            snapshot = budget.snapshot()
        finally:
            stack.__exit__(None, None, None)
        assert snapshot["deadline.remaining_seconds"] == 0.0

    def test_exhaustion_payload_never_negative_remaining(self):
        budget, stack = self._expired_budget()
        try:
            with pytest.raises(DeadlineExceeded) as excinfo:
                budget.checkpoint()
        finally:
            stack.__exit__(None, None, None)
        assert excinfo.value.snapshot["deadline.remaining_seconds"] >= 0.0


class TestProducerGuard:
    def test_unbudgeted_guard_is_transparent(self):
        guard = ProducerGuard()
        assert guard.budget is None
        assert guard.start_row() and guard.produced(10)

    def test_produced_charged_before_append_caps_exactly(self):
        budget = Budget(output_tuples=3)
        with budget.activate():
            guard = ProducerGuard()
            rows = []
            with pytest.raises(OutputLimitExceeded):
                for i in range(10):
                    assert guard.start_row()
                    if not guard.produced():
                        break
                    rows.append(i)
        assert len(rows) == 3  # the cap is exact, not cap+1

    def test_partial_mode_truncates_instead_of_raising(self):
        budget = Budget(output_tuples=3, on_exhausted="partial")
        with budget.activate():
            guard = ProducerGuard()
            rows = [i for i in range(10) if guard.start_row() and guard.produced()]
        assert len(rows) == 3
        assert budget.truncated

    def test_absorb_only_in_partial_mode(self):
        exc = SolverBudgetExceeded("over")
        with Budget(on_exhausted="raise").activate():
            assert not ProducerGuard().absorb(exc)
        budget = Budget(on_exhausted="partial")
        with budget.activate():
            assert ProducerGuard().absorb(exc)
        assert budget.truncated


def _session(budget=None) -> QuerySession:
    x = var("x")
    schema = Schema([constraint("x")])
    tuples = [
        HTuple(schema, {}, Conjunction([le(i, x), le(x, i + 1)])) for i in range(10)
    ]
    db = Database({"R": ConstraintRelation(schema, tuples, "R")})
    return QuerySession(db, budget=budget)


class TestSessionIntegration:
    def test_raise_mode_propagates(self):
        session = _session(Budget(output_tuples=3))
        with pytest.raises(OutputLimitExceeded):
            session.execute("A = select x <= 5 from R")

    def test_partial_mode_binds_truncated_prefix(self):
        session = _session(Budget(output_tuples=3, on_exhausted="partial"))
        result = session.execute("A = select x <= 5 from R")
        assert len(result) == 3
        assert result.truncated
        assert session["A"].truncated  # the binding carries the flag too

    def test_full_results_are_not_marked_truncated(self):
        session = _session(Budget(output_tuples=1000, on_exhausted="partial"))
        result = session.execute("A = select x <= 5 from R")
        assert len(result) == 6
        assert not result.truncated

    def test_session_reusable_after_exhaustion(self):
        session = _session(Budget(output_tuples=3))
        with pytest.raises(OutputLimitExceeded):
            session.execute("A = select x <= 5 from R")
        # The budget window closed cleanly: the next statement gets a
        # fresh allowance and the session's bindings still work.
        result = session.execute("B = select x <= 2 from R")
        assert len(result) == 3 and not result.truncated

    def test_explain_analyze_reports_budget(self):
        session = _session(Budget(output_tuples=100))
        report = session.explain_analyze("A = select x <= 5 from R")
        text = report.format()
        assert "budget_rows=" in text
        assert "budget: output_tuples=" in text

    def test_deadline_mid_buffer_join_leaves_session_reusable(self):
        from repro.errors import ResourceExhausted
        from repro.spatial import ConvexPolygon, Feature, FeatureSet
        from repro.spatial.buffer_join import buffer_join

        features = FeatureSet(
            [
                Feature(f"f{i}", [ConvexPolygon.box(i, 0, i + 2, 2)])
                for i in range(30)
            ]
        )
        budget = Budget(deadline_seconds=1e-9)  # expires before the first row
        with pytest.raises(ResourceExhausted):
            with budget.activate():
                buffer_join(features, features, 1)
        # Same budget, fresh window, normal deadline: the join completes.
        budget2 = Budget(deadline_seconds=30)
        with budget2.activate():
            result = buffer_join(features, features, 1)
        assert len(result) > 0

    def test_partial_deadline_truncates_buffer_join(self):
        from repro.spatial import ConvexPolygon, Feature, FeatureSet
        from repro.spatial.buffer_join import buffer_join

        features = FeatureSet(
            [Feature(f"f{i}", [ConvexPolygon.box(i, 0, i + 2, 2)]) for i in range(30)]
        )
        budget = Budget(deadline_seconds=1e-9, on_exhausted="partial")
        with budget.activate():
            result = buffer_join(features, features, 1)
        assert budget.truncated
        assert len(result) == 0  # expired before any pair was produced
