"""Unit tests for the exception hierarchy."""

import pytest

from repro.errors import (
    AlgebraError,
    ConstraintError,
    CorruptPageError,
    DeadlineExceeded,
    DNFBudgetExceeded,
    GeometryError,
    IndexStructureError,
    IOBudgetExceeded,
    NonLinearError,
    OutputLimitExceeded,
    ParseError,
    QueryError,
    ReproError,
    ResourceExhausted,
    SafetyError,
    SchemaError,
    SolverBudgetExceeded,
    StorageError,
    TransientStorageError,
)


class TestHierarchy:
    @pytest.mark.parametrize(
        "exc_type",
        [
            AlgebraError,
            ConstraintError,
            GeometryError,
            IndexStructureError,
            NonLinearError,
            ParseError,
            QueryError,
            ResourceExhausted,
            SafetyError,
            SchemaError,
            StorageError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc_type):
        assert issubclass(exc_type, ReproError)

    def test_safety_is_algebra_error(self):
        assert issubclass(SafetyError, AlgebraError)

    def test_parse_is_query_error(self):
        assert issubclass(ParseError, QueryError)

    def test_nonlinear_is_constraint_error(self):
        assert issubclass(NonLinearError, ConstraintError)

    def test_index_error_does_not_shadow_builtin(self):
        assert not issubclass(IndexStructureError, IndexError)

    @pytest.mark.parametrize(
        "exc_type",
        [
            DeadlineExceeded,
            SolverBudgetExceeded,
            DNFBudgetExceeded,
            OutputLimitExceeded,
            IOBudgetExceeded,
        ],
    )
    def test_exhaustion_taxonomy(self, exc_type):
        assert issubclass(exc_type, ResourceExhausted)

    @pytest.mark.parametrize("exc_type", [TransientStorageError, CorruptPageError])
    def test_storage_fault_taxonomy(self, exc_type):
        assert issubclass(exc_type, StorageError)


class TestResourceExhausted:
    def test_carries_accounting(self):
        err = SolverBudgetExceeded(
            "over budget",
            resource="solver_steps",
            consumed=12,
            limit=10,
            snapshot={"consumed.solver_steps": 12},
        )
        assert err.resource == "solver_steps"
        assert err.consumed == 12 and err.limit == 10
        assert err.snapshot["consumed.solver_steps"] == 12

    def test_defaults_are_empty(self):
        err = ResourceExhausted("plain")
        assert err.resource == "" and err.consumed is None
        assert err.limit is None and err.snapshot == {}


class TestParseErrorLocation:
    def test_message_only(self):
        assert str(ParseError("bad token")) == "bad token"

    def test_line(self):
        err = ParseError("bad token", line=3)
        assert "line 3" in str(err)
        assert err.line == 3 and err.column is None

    def test_line_and_column(self):
        err = ParseError("bad token", line=3, column=7)
        assert "line 3, column 7" in str(err)

    def test_column_only(self):
        # Single-statement parsers often know the offset but not a line.
        err = ParseError("bad token", column=7)
        assert "column 7" in str(err)
        assert err.line is None and err.column == 7

    def test_catchable_as_base(self):
        with pytest.raises(ReproError):
            raise ParseError("x", 1, 2)
