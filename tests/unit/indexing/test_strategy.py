"""Unit tests for joint/separate indexing strategies (§5)."""

import pytest

from repro.constraints import parse_constraints
from repro.errors import IndexStructureError, SchemaError
from repro.indexing import (
    JointIndex,
    NULL_SENTINEL,
    SeparateIndexes,
    query_box_for_predicates,
    tuple_interval,
)
from repro.model import (
    ConstraintRelation,
    DataType,
    HTuple,
    Schema,
    constraint,
    relational,
)
from repro.workloads import rectangles


@pytest.fixture(scope="module")
def workload():
    data = rectangles.generate_data(300, seed=11)
    relation = rectangles.build_constraint_relation(data)
    return data, relation


class TestTupleInterval:
    def test_constraint_box(self):
        schema = Schema([constraint("x"), constraint("y")])
        t = HTuple(schema, {}, parse_constraints("2 <= x, x <= 5, y = 3"))
        assert tuple_interval(t, "x") == (2.0, 5.0)
        assert tuple_interval(t, "y") == (3.0, 3.0)

    def test_multivariable_formula_uses_elimination(self):
        schema = Schema([constraint("x"), constraint("y")])
        t = HTuple(schema, {}, parse_constraints("x = y, 0 <= y, y <= 2"))
        assert tuple_interval(t, "x") == (0.0, 2.0)

    def test_unbounded_clamped(self):
        schema = Schema([constraint("x")])
        t = HTuple(schema, {}, parse_constraints("x >= 5"))
        low, high = tuple_interval(t, "x")
        assert low == 5.0 and high > 1e17

    def test_relational_point(self):
        schema = Schema([relational("v", DataType.RATIONAL)])
        t = HTuple(schema, {"v": "2.5"})
        assert tuple_interval(t, "v") == (2.5, 2.5)

    def test_null_maps_to_sentinel(self):
        schema = Schema([relational("v", DataType.RATIONAL)])
        t = HTuple(schema, {})
        assert tuple_interval(t, "v") == (NULL_SENTINEL, NULL_SENTINEL)

    def test_string_attribute_rejected(self):
        schema = Schema([relational("name")])
        t = HTuple(schema, {"name": "x"})
        with pytest.raises(SchemaError):
            tuple_interval(t, "name")


class TestStrategyCorrectness:
    def test_both_strategies_match_bruteforce_two_attrs(self, workload):
        data, relation = workload
        joint = JointIndex(relation, ["x", "y"], max_entries=8)
        separate = SeparateIndexes(relation, ["x", "y"], max_entries=8)
        for query in rectangles.generate_queries(25, seed=3):
            box = rectangles.query_box_two_attributes(query)
            expected = rectangles.brute_force_matches(data, box)
            assert joint.query(box) == expected
            assert separate.query(box) == expected

    def test_both_strategies_match_bruteforce_one_attr(self, workload):
        data, relation = workload
        joint = JointIndex(relation, ["x", "y"], max_entries=8)
        separate = SeparateIndexes(relation, ["x", "y"], max_entries=8)
        for query in rectangles.generate_queries(25, seed=4):
            box = rectangles.query_box_one_attribute(query, "x")
            expected = rectangles.brute_force_matches(data, box)
            assert joint.query(box) == expected
            assert separate.query(box) == expected

    def test_relational_points_variant(self, workload):
        data, _ = workload
        relation = rectangles.build_relational_relation(data)
        joint = JointIndex(relation, ["x", "y"], max_entries=8)
        separate = SeparateIndexes(relation, ["x", "y"], max_entries=8)
        for query in rectangles.generate_queries(10, seed=5):
            box = rectangles.query_box_two_attributes(query)
            expected = rectangles.brute_force_matches(data, box, as_points=True)
            assert joint.query(box) == expected
            assert separate.query(box) == expected

    def test_null_excluded_by_constrained_query_included_when_unqueried(self):
        schema = Schema(
            [relational("x", DataType.RATIONAL), relational("y", DataType.RATIONAL)]
        )
        relation = ConstraintRelation(
            schema,
            [
                HTuple(schema, {"x": 1, "y": 1}),
                HTuple(schema, {"x": 2}),  # y is NULL
            ],
        )
        joint = JointIndex(relation, ["x", "y"], max_entries=4)
        # y constrained: the NULL-y tuple must not match.
        assert joint.query({"x": (0.0, 5.0), "y": (0.0, 5.0)}) == {0}
        # y unqueried: the NULL-y tuple matches on x alone.
        assert joint.query({"x": (0.0, 5.0)}) == {0, 1}

    def test_empty_and_none_boxes(self, workload):
        _, relation = workload
        joint = JointIndex(relation, ["x", "y"], max_entries=8)
        separate = SeparateIndexes(relation, ["x", "y"], max_entries=8)
        assert joint.query(None) == set()
        assert separate.query(None) == set()
        assert joint.query({"x": (5.0, 1.0)}) == set()  # inverted interval
        assert separate.query({"x": (5.0, 1.0)}) == set()
        # no constrained attribute: all tuples are candidates
        assert len(separate.query({})) == len(relation)

    def test_access_accounting_sums_subqueries(self, workload):
        _, relation = workload
        separate = SeparateIndexes(relation, ["x", "y"], max_entries=8)
        separate.reset_counters()
        separate.query({"x": (0.0, 100.0)})
        x_only = separate.accesses
        separate.query({"x": (0.0, 100.0), "y": (0.0, 100.0)})
        assert separate.accesses > 2 * x_only * 0  # grows
        assert separate.accesses > x_only

    def test_duplicate_attributes_rejected(self, workload):
        _, relation = workload
        with pytest.raises(IndexStructureError):
            JointIndex(relation, ["x", "x"])
        with pytest.raises(IndexStructureError):
            SeparateIndexes(relation, [])


class TestQueryBoxForPredicates:
    def test_simple_bounds(self):
        box = query_box_for_predicates(
            parse_constraints("2 <= x, x <= 5, y >= 1"), ["x", "y"]
        )
        assert box["x"] == (2.0, 5.0)
        assert box["y"][0] == 1.0

    def test_implied_bounds_from_multivariable(self):
        box = query_box_for_predicates(
            parse_constraints("x + y <= 10, x >= 2, y >= 3"), ["x", "y"]
        )
        assert box["x"] == (2.0, 7.0)
        assert box["y"] == (3.0, 8.0)

    def test_unsatisfiable_returns_none(self):
        assert query_box_for_predicates(parse_constraints("x < 0, x > 0"), ["x"]) is None

    def test_no_linear_predicates(self):
        from repro.algebra import StringPredicate

        assert query_box_for_predicates([StringPredicate("id", "a")], ["x"]) == {}

    def test_unmentioned_attribute_omitted(self):
        box = query_box_for_predicates(parse_constraints("x <= 5"), ["x", "y"])
        assert "y" not in box
