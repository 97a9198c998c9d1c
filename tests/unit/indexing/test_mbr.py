"""Unit tests for k-dimensional MBRs."""

import pytest

from repro.errors import IndexStructureError
from repro.indexing import MBR


class TestConstruction:
    def test_point(self):
        p = MBR.point((1.0, 2.0))
        assert p.mins == p.maxs == (1.0, 2.0)

    def test_empty_rejected(self):
        with pytest.raises(IndexStructureError):
            MBR((2.0,), (1.0,))

    def test_dim_mismatch_rejected(self):
        with pytest.raises(IndexStructureError):
            MBR((0.0,), (1.0, 2.0))

    def test_zero_dims_rejected(self):
        with pytest.raises(IndexStructureError):
            MBR((), ())

    def test_union_all(self):
        u = MBR.union_all([MBR((0.0, 0.0), (1.0, 1.0)), MBR((2.0, -1.0), (3.0, 0.5))])
        assert u.mins == (0.0, -1.0)
        assert u.maxs == (3.0, 1.0)

    def test_union_all_empty_rejected(self):
        with pytest.raises(IndexStructureError):
            MBR.union_all([])


class TestGeometry:
    def test_area_and_margin(self):
        box = MBR((0.0, 0.0), (2.0, 3.0))
        assert box.area() == 6.0
        assert box.margin() == 5.0

    def test_center(self):
        assert MBR((0.0, 0.0), (2.0, 4.0)).center() == (1.0, 2.0)

    def test_intersects_and_contains(self):
        a = MBR((0.0, 0.0), (2.0, 2.0))
        b = MBR((1.0, 1.0), (3.0, 3.0))
        c = MBR((0.5, 0.5), (1.0, 1.0))
        assert a.intersects(b) and b.intersects(a)
        assert a.contains(c) and not c.contains(a)
        assert not a.intersects(MBR((5.0, 5.0), (6.0, 6.0)))

    def test_touching_intersects(self):
        assert MBR((0.0,), (1.0,)).intersects(MBR((1.0,), (2.0,)))

    def test_overlap_area(self):
        a = MBR((0.0, 0.0), (2.0, 2.0))
        b = MBR((1.0, 1.0), (3.0, 3.0))
        assert a.overlap_area(b) == 1.0
        assert a.overlap_area(MBR((5.0, 5.0), (6.0, 6.0))) == 0.0

    def test_enlargement(self):
        a = MBR((0.0, 0.0), (1.0, 1.0))
        assert a.enlargement(MBR((1.0, 0.0), (2.0, 1.0))) == 1.0
        assert a.enlargement(MBR((0.2, 0.2), (0.8, 0.8))) == 0.0

    def test_min_distance_sq(self):
        a = MBR((0.0, 0.0), (1.0, 1.0))
        assert a.min_distance_sq(MBR((2.0, 0.0), (3.0, 1.0))) == 1.0
        assert a.min_distance_sq(MBR((2.0, 2.0), (3.0, 3.0))) == 2.0
        assert a.min_distance_sq(MBR((0.5, 0.5), (0.6, 0.6))) == 0.0

    def test_value_semantics(self):
        assert MBR((0,), (1,)) == MBR((0.0,), (1.0,))  # ints coerced to floats
        assert hash(MBR((0.0,), (1.0,))) == hash(MBR((0.0,), (1.0,)))
        assert MBR((0.0,), (1.0,)) != MBR((0.0,), (2.0,))
