"""Unit tests for STR bulk loading."""

import random

import pytest

from repro.errors import IndexStructureError
from repro.indexing import MBR, RStarTree
from repro.indexing.bulk import str_bulk_load, str_bulk_load_relation
from repro.workloads import rectangles


def random_items(n: int, seed: int = 3):
    rng = random.Random(seed)
    items = []
    for i in range(n):
        x, y = rng.uniform(0, 1000), rng.uniform(0, 1000)
        items.append((MBR((x, y), (x + rng.uniform(1, 20), y + rng.uniform(1, 20))), i))
    return items


class TestStrBulkLoad:
    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 63, 64, 65, 500])
    def test_invariants_at_boundary_sizes(self, n):
        tree = str_bulk_load(random_items(n), dimensions=2, max_entries=8)
        tree.check_invariants()
        assert len(tree) == n

    def test_search_equals_linear_scan(self):
        items = random_items(600)
        tree = str_bulk_load(items, dimensions=2, max_entries=10)
        rng = random.Random(8)
        for _ in range(30):
            x, y = rng.uniform(0, 1000), rng.uniform(0, 1000)
            q = MBR((x, y), (x + 150, y + 150))
            expected = sorted(p for mbr, p in items if mbr.intersects(q))
            assert sorted(tree.search(q)) == expected

    def test_packs_tighter_than_insertion(self):
        items = random_items(800)
        packed = str_bulk_load(items, dimensions=2, max_entries=10)
        grown = RStarTree(dimensions=2, max_entries=10)
        for mbr, p in items:
            grown.insert(mbr, p)
        assert packed.node_count < grown.node_count

    def test_inserts_and_deletes_after_packing(self):
        items = random_items(100)
        tree = str_bulk_load(items, dimensions=2, max_entries=8, fill_factor=0.8)
        tree.insert(MBR((5.0, 5.0), (6.0, 6.0)), 999)
        tree.check_invariants()
        assert tree.delete(items[0][0], items[0][1])
        tree.check_invariants()
        assert len(tree) == 100

    def test_one_dimensional(self):
        items = [(MBR((float(i),), (float(i) + 1.0,)), i) for i in range(100)]
        tree = str_bulk_load(items, dimensions=1, max_entries=6)
        tree.check_invariants()
        assert sorted(tree.search(MBR((10.0,), (12.0,)))) == [9, 10, 11, 12]

    def test_dimension_mismatch(self):
        with pytest.raises(IndexStructureError):
            str_bulk_load([(MBR((0.0,), (1.0,)), 0)], dimensions=2)

    def test_fill_factor_validation(self):
        with pytest.raises(IndexStructureError):
            str_bulk_load([], dimensions=2, fill_factor=0.1)

    def test_nearest_works_on_packed_tree(self):
        items = random_items(200)
        tree = str_bulk_load(items, dimensions=2, max_entries=8)
        target = MBR.point((500.0, 500.0))
        got = [round(d, 9) for d, _ in tree.nearest(target, k=3)]
        expected = sorted(round(target.min_distance_sq(m) ** 0.5, 9) for m, _ in items)[:3]
        assert got == expected


class TestRelationBulkLoad:
    def test_matches_strategy_candidates(self):
        data = rectangles.generate_data(300, seed=40)
        relation = rectangles.build_constraint_relation(data)
        tree = str_bulk_load_relation(relation, ["x", "y"], max_entries=10)
        for query in rectangles.generate_queries(10, seed=41):
            box = rectangles.query_box_two_attributes(query)
            q = MBR(
                (box["x"][0], box["y"][0]),
                (box["x"][1], box["y"][1]),
            )
            assert set(tree.search(q)) == rectangles.brute_force_matches(data, box)
