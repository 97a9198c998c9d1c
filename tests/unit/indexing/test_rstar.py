"""Unit tests for the R*-tree."""

import random

import pytest

from repro.errors import IndexStructureError
from repro.indexing import MBR, RStarTree


def random_boxes(count: int, seed: int = 7) -> list[tuple[MBR, int]]:
    rng = random.Random(seed)
    boxes = []
    for i in range(count):
        x, y = rng.uniform(0, 1000), rng.uniform(0, 1000)
        w, h = rng.uniform(1, 50), rng.uniform(1, 50)
        boxes.append((MBR((x, y), (x + w, y + h)), i))
    return boxes


def build(count: int = 400, **kwargs) -> tuple[RStarTree, list[tuple[MBR, int]]]:
    tree = RStarTree(dimensions=2, max_entries=kwargs.pop("max_entries", 8), **kwargs)
    boxes = random_boxes(count)
    for mbr, payload in boxes:
        tree.insert(mbr, payload)
    return tree, boxes


class TestConstruction:
    def test_parameter_validation(self):
        with pytest.raises(IndexStructureError):
            RStarTree(dimensions=0)
        with pytest.raises(IndexStructureError):
            RStarTree(dimensions=2, max_entries=3)
        with pytest.raises(IndexStructureError):
            RStarTree(dimensions=2, max_entries=8, min_entries=1)
        with pytest.raises(IndexStructureError):
            RStarTree(dimensions=2, max_entries=8, min_entries=5)

    def test_default_min_entries_is_forty_percent(self):
        assert RStarTree(dimensions=2, max_entries=50).min_entries == 20

    def test_dimension_check_on_insert(self):
        tree = RStarTree(dimensions=2)
        with pytest.raises(IndexStructureError):
            tree.insert(MBR((0.0,), (1.0,)), 1)


class TestInsertAndSearch:
    def test_search_equals_linear_scan(self):
        tree, boxes = build(500)
        tree.check_invariants()
        rng = random.Random(1)
        for _ in range(40):
            x, y = rng.uniform(0, 1000), rng.uniform(0, 1000)
            q = MBR((x, y), (x + rng.uniform(10, 300), y + rng.uniform(10, 300)))
            assert sorted(tree.search(q)) == sorted(
                p for mbr, p in boxes if mbr.intersects(q)
            )

    def test_duplicate_mbrs_supported(self):
        tree = RStarTree(dimensions=1, max_entries=4)
        box = MBR((0.0,), (1.0,))
        for i in range(20):
            tree.insert(box, i)
        assert sorted(tree.search(box)) == list(range(20))
        tree.check_invariants()

    def test_items_enumerates_everything(self):
        tree, boxes = build(100)
        assert sorted(p for _, p in tree.items()) == sorted(p for _, p in boxes)

    def test_height_grows_logarithmically(self):
        tree, _ = build(400, max_entries=8)
        assert 2 <= tree.height <= 6

    def test_forced_reinsert_improves_packing(self):
        boxes = random_boxes(800)
        with_fr = RStarTree(dimensions=2, max_entries=8)
        without_fr = RStarTree(dimensions=2, max_entries=8, forced_reinsert=False)
        for mbr, p in boxes:
            with_fr.insert(mbr, p)
            without_fr.insert(mbr, p)
        assert with_fr.node_count <= without_fr.node_count

    def test_access_counting(self):
        tree, _ = build(400)
        tree.reset_counters()
        tree.search(MBR((0.0, 0.0), (1000.0, 1000.0)))
        full_scan = tree.search_accesses
        assert full_scan == tree.node_count  # full-space query touches all
        tree.reset_counters()
        tree.search(MBR((0.0, 0.0), (1.0, 1.0)))
        assert tree.search_accesses < full_scan

    def test_write_accesses_counted(self):
        tree, _ = build(50)
        assert tree.write_accesses > 0


class TestNearest:
    def test_nearest_matches_bruteforce(self):
        tree, boxes = build(300)
        target = MBR.point((500.0, 500.0))
        got = tree.nearest(target, k=7)
        expected = sorted((target.min_distance_sq(m) ** 0.5, p) for m, p in boxes)[:7]
        assert [round(d, 9) for d, _ in got] == [round(d, 9) for d, _ in expected]

    def test_nearest_k_exceeds_size(self):
        tree, boxes = build(10)
        assert len(tree.nearest(MBR.point((0.0, 0.0)), k=50)) == 10

    def test_nearest_invalid_k(self):
        tree, _ = build(10)
        with pytest.raises(IndexStructureError):
            tree.nearest(MBR.point((0.0, 0.0)), k=0)

    def test_nearest_iter_is_sorted_and_complete(self):
        tree, boxes = build(120)
        target = MBR.point((123.0, 456.0))
        stream = list(tree.nearest_iter(target))
        assert len(stream) == len(boxes)
        distances = [d for d, _ in stream]
        assert distances == sorted(distances)

    def test_nearest_iter_lazy_access_counting(self):
        tree, _ = build(400)
        tree.reset_counters()
        iterator = tree.nearest_iter(MBR.point((500.0, 500.0)))
        next(iterator)
        partial = tree.search_accesses
        assert 0 < partial < tree.node_count


class TestDelete:
    def test_delete_and_search(self):
        tree, boxes = build(300)
        for mbr, p in boxes[:150]:
            assert tree.delete(mbr, p)
        tree.check_invariants()
        assert len(tree) == 150
        q = MBR((0.0, 0.0), (1000.0, 1000.0))
        assert sorted(tree.search(q)) == sorted(p for _, p in boxes[150:])

    def test_delete_missing_returns_false(self):
        tree, boxes = build(50)
        assert not tree.delete(MBR((0.0, 0.0), (1.0, 1.0)), 999999)
        assert len(tree) == 50

    def test_delete_everything(self):
        tree, boxes = build(100)
        for mbr, p in boxes:
            assert tree.delete(mbr, p)
        assert len(tree) == 0
        assert tree.search(MBR((0.0, 0.0), (1000.0, 1000.0))) == []
        tree.check_invariants()

    def test_reinsert_after_delete(self):
        tree, boxes = build(100)
        for mbr, p in boxes:
            tree.delete(mbr, p)
        for mbr, p in boxes:
            tree.insert(mbr, p)
        tree.check_invariants()
        assert len(tree) == 100


class TestOneDimensional:
    def test_interval_search(self):
        tree = RStarTree(dimensions=1, max_entries=6)
        intervals = [(i * 10.0, i * 10.0 + 5.0) for i in range(100)]
        for i, (lo, hi) in enumerate(intervals):
            tree.insert(MBR((lo,), (hi,)), i)
        tree.check_invariants()
        hits = tree.search(MBR((12.0,), (33.0,)))
        assert sorted(hits) == [1, 2, 3]
