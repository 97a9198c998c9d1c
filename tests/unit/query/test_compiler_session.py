"""Unit tests for query compilation and session execution."""

import pytest

from repro.algebra import StringPredicate
from repro.constraints import Comparator, LinearConstraint
from repro.errors import QueryError
from repro.model import (
    ConstraintRelation,
    Database,
    DataType,
    HTuple,
    Schema,
    constraint,
    relational,
)
from repro.constraints import parse_constraints
from repro.query import QuerySession, compile_statement, parse_statement
from repro.query.compiler import compile_conditions


def schema() -> Schema:
    return Schema(
        [relational("name"), relational("age", DataType.RATIONAL), constraint("t")]
    )


def conditions(text: str):
    stmt = parse_statement(f"R0 = select {text} from R")
    return compile_conditions(stmt.body.conditions, schema())


class TestConditionCompilation:
    def test_linear_condition(self):
        (p,) = conditions("t >= 4")
        assert isinstance(p, LinearConstraint)
        assert p.comparator is Comparator.LE  # >= normalised

    def test_rational_relational_in_linear(self):
        (p,) = conditions("age + t <= 45")
        assert p.variables == {"age", "t"}

    def test_bare_identifier_string_constant(self):
        (p,) = conditions("name = Ann")
        assert isinstance(p, StringPredicate)
        assert p.attribute == "name" and p.value == "Ann" and not p.is_attribute

    def test_reversed_sides(self):
        (p,) = conditions("Ann = name")
        assert isinstance(p, StringPredicate)
        assert p.attribute == "name"

    def test_quoted_string(self):
        (p,) = conditions('name = "Del Rio"')
        assert p.value == "Del Rio"

    def test_string_inequality(self):
        (p,) = conditions("name != Ann")
        assert p.negated

    def test_attr_to_attr(self):
        two = Schema([relational("a"), relational("b")])
        stmt = parse_statement("R0 = select a = b from R")
        (p,) = compile_conditions(stmt.body.conditions, two)
        assert p.is_attribute

    def test_string_with_ordering_rejected(self):
        with pytest.raises(QueryError):
            conditions("name <= Ann")

    def test_string_vs_rational_rejected(self):
        with pytest.raises(QueryError):
            conditions("name = t")

    def test_numeric_not_equal_rejected_with_hint(self):
        with pytest.raises(QueryError, match="union"):
            conditions("t != 4")

    def test_unknown_attribute(self):
        with pytest.raises(QueryError, match="unknown attribute"):
            conditions("zzz + 1 <= 2")

    def test_two_constants_no_attribute(self):
        with pytest.raises(QueryError):
            conditions("Ann = Bob")

    def test_arithmetic(self):
        (p,) = conditions("2*(t - 1) / 4 <= age")
        assert p.variables == {"t", "age"}


class TestCompileStatement:
    def test_unknown_relation(self):
        stmt = parse_statement("R0 = project Nope on x")
        with pytest.raises(QueryError, match="known relations"):
            compile_statement(stmt.body, {})


@pytest.fixture
def db():
    s = Schema([relational("id"), constraint("t")])
    r = ConstraintRelation(
        s,
        [
            HTuple(s, {"id": "a"}, parse_constraints("0 <= t, t <= 10")),
            HTuple(s, {"id": "b"}, parse_constraints("5 <= t, t <= 20")),
        ],
        "R",
    )
    return Database({"R": r})


class TestSession:
    def test_execute_binds_result(self, db):
        session = QuerySession(db)
        result = session.execute("R0 = select t >= 15 from R")
        assert len(result) == 1
        assert "R0" in session
        assert session["R0"] is session.last

    def test_steps_reference_previous(self, db):
        session = QuerySession(db)
        session.execute("R0 = select t >= 15 from R")
        result = session.execute("R1 = project R0 on id")
        assert [t.value("id") for t in result] == ["b"]

    def test_run_script_returns_last(self, db):
        session = QuerySession(db)
        result = session.run_script(
            "R0 = select t >= 15 from R\nR1 = project R0 on id\n"
        )
        assert result.schema.names == ("id",)
        assert set(session.results) == {"R0", "R1"}

    def test_rebinding_intermediate_names_allowed(self, db):
        session = QuerySession(db)
        session.execute("R0 = select t >= 15 from R")
        session.execute("R0 = select t >= 0 from R")
        assert len(session["R0"]) == 2

    def test_last_before_any_statement(self, db):
        with pytest.raises(QueryError):
            QuerySession(db).last

    def test_unknown_result(self, db):
        with pytest.raises(QueryError):
            QuerySession(db)["nope"]

    def test_explain_shows_plan(self, db):
        session = QuerySession(db)
        text = session.explain("R0 = select t >= 15 from R")
        assert "Scan(R)" in text or "Select" in text

    def test_optimizer_uses_indexes(self, db):
        from repro.indexing import JointIndex

        indexes = {"R": {frozenset({"t"}): JointIndex(db["R"], ["t"], max_entries=4)}}
        session = QuerySession(db, indexes=indexes)
        result = session.execute("R0 = select t >= 15 from R")
        assert [t.value("id") for t in result] == ["b"]
        assert session.metrics.operator_calls.get("index_scan") == 1

    def test_optimizer_disabled(self, db):
        from repro.indexing import JointIndex

        indexes = {"R": {frozenset({"t"}): JointIndex(db["R"], ["t"], max_entries=4)}}
        session = QuerySession(db, indexes=indexes, use_optimizer=False)
        session.execute("R0 = select t >= 15 from R")
        assert "index_scan" not in session.metrics.operator_calls

    def test_base_relations_unchanged(self, db):
        session = QuerySession(db)
        session.execute("R0 = select t >= 15 from R")
        assert len(db["R"]) == 2
        assert len(session["R"]) == 2


class TestSessionClose:
    def test_close_is_idempotent(self):
        session = QuerySession(Database())
        assert not session.closed
        session.close()
        session.close()
        assert session.closed

    def test_context_manager_after_explicit_close(self):
        with QuerySession(Database()) as session:
            session.close()
        assert session.closed  # __exit__ re-closing was a no-op

    def test_closed_session_rejects_statements(self, db):
        session = QuerySession(db)
        session.close()
        with pytest.raises(QueryError, match="closed"):
            session.execute("R0 = select t >= 0 from R")

    def test_workers_argument_is_gone(self):
        with pytest.raises(TypeError):
            QuerySession(Database(), workers=2)
