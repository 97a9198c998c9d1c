"""Unit tests for the attribute-grouping advisor (the §5.4 open problem)."""

import pytest

from repro.errors import IndexStructureError
from repro.indexing import WorkloadQuery, estimate_query_cost, recommend_grouping


def q(attrs, frequency=1.0, selectivity=0.1):
    return WorkloadQuery(frozenset(attrs), frequency, selectivity)


class TestWorkloadQuery:
    def test_validation(self):
        with pytest.raises(IndexStructureError):
            WorkloadQuery(frozenset())
        with pytest.raises(IndexStructureError):
            q(["x"], selectivity=0)
        with pytest.raises(IndexStructureError):
            q(["x"], frequency=0)


class TestCostModel:
    def test_joint_cheaper_for_two_attribute_queries(self):
        query = q(["x", "y"])
        joint = estimate_query_cost(query, [frozenset({"x", "y"})], 10_000)
        separate = estimate_query_cost(query, [frozenset({"x"}), frozenset({"y"})], 10_000)
        assert joint < separate

    def test_separate_cheaper_for_single_attribute_queries(self):
        query = q(["x"])
        joint = estimate_query_cost(query, [frozenset({"x", "y"})], 10_000)
        separate = estimate_query_cost(query, [frozenset({"x"}), frozenset({"y"})], 10_000)
        assert separate < joint

    def test_uncovered_query_costs_full_scan(self):
        query = q(["z"])
        cost = estimate_query_cost(query, [frozenset({"x"})], 10_000, fanout=100)
        assert cost == 100.0  # 10_000 / 100

    def test_empty_relation(self):
        assert estimate_query_cost(q(["x"]), [frozenset({"x"})], 0) == 0.0


class TestRecommendation:
    def test_co_queried_attributes_grouped(self):
        rec = recommend_grouping(
            ["x", "y"], [q(["x", "y"])] * 5, relation_size=10_000
        )
        assert rec.groups == (frozenset({"x", "y"}),)

    def test_independent_attributes_separate(self):
        rec = recommend_grouping(
            ["x", "y"], [q(["x"]), q(["y"])], relation_size=10_000
        )
        assert set(rec.groups) == {frozenset({"x"}), frozenset({"y"})}

    def test_mixed_workload_dominant_pattern_wins(self):
        mostly_joint = [q(["x", "y"], frequency=9.0), q(["x"], frequency=1.0)]
        rec = recommend_grouping(["x", "y"], mostly_joint, relation_size=10_000)
        assert frozenset({"x", "y"}) in rec.groups

    def test_three_attributes_partition(self):
        # x,y always queried together; z always alone.
        workload = [q(["x", "y"], frequency=5.0), q(["z"], frequency=5.0)]
        rec = recommend_grouping(["x", "y", "z"], workload, relation_size=10_000)
        assert frozenset({"x", "y"}) in rec.groups
        assert frozenset({"z"}) in rec.groups

    def test_alternatives_reported_sorted(self):
        rec = recommend_grouping(["x", "y"], [q(["x", "y"])], relation_size=10_000)
        costs = [cost for _, cost in rec.alternatives]
        assert costs == sorted(costs)
        assert all(rec.estimated_cost <= cost for cost in costs)

    def test_validation(self):
        with pytest.raises(IndexStructureError):
            recommend_grouping([], [q(["x"])], 100)
        with pytest.raises(IndexStructureError):
            recommend_grouping(["x"], [], 100)
        with pytest.raises(IndexStructureError):
            recommend_grouping(["x"], [q(["zzz"])], 100)

    def test_str(self):
        rec = recommend_grouping(["x", "y"], [q(["x", "y"])], relation_size=1000)
        assert "index groups" in str(rec)
