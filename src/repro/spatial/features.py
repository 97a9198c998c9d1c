"""Spatial features and spatial constraint relations (section 4.2).

A *spatial constraint relation* has "the feature ID [as] the only
non-spatial attribute": one feature (a road, a land parcel, a hurricane
path) is stored as several constraint tuples — one convex part each —
sharing a feature ID.  :class:`Feature` is the whole-feature view (the unit
the section 4 operators work on); :class:`FeatureSet` converts between the
relation form and the feature form and maintains the R*-tree over feature
bounding boxes that Buffer-Join and k-Nearest search.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Mapping

import numpy as _np

from ..constraints import Conjunction
from ..errors import GeometryError, SchemaError
from ..exec import columnar as _cx
from ..indexing.mbr import MBR
from ..indexing.rstar import RStarTree
from ..model.relation import ConstraintRelation
from ..model.schema import Schema, constraint, relational
from ..model.tuples import HTuple
from ..model.types import DataType, Null
from ..obs import (
    COLUMNAR_BATCHES,
    COLUMNAR_FALLBACK,
    COLUMNAR_FILTERED,
    SPATIAL_REFINE_PRUNES,
    record,
)
from ..rational import float_down, float_up
from .geometry import BoundingBox, Point
from .polygon import ConvexPolygon

#: A float axis-aligned box ``(min_x, min_y, max_x, max_y)`` — the
#: interval summary of one convex part, precomputed for cheap pruning.
FloatBox = tuple[float, float, float, float]


def _float_box(box: BoundingBox) -> FloatBox:
    # Widened (outward) rounding: the float box must *contain* the exact
    # rational box, so a box-distance prune computed on floats can never
    # discard a geometrically qualifying pair.
    return (
        float_down(box.min_x),
        float_down(box.min_y),
        float_up(box.max_x),
        float_up(box.max_y),
    )


def box_mindist(a: FloatBox, b: FloatBox) -> float:
    """Euclidean minimum distance between two float boxes (0 on overlap).

    This lower-bounds the exact distance between any two shapes the boxes
    enclose — the same interval-pruning idea the solver layer applies to
    join pairs, here applied to spatial refinement candidates."""
    dx = max(b[0] - a[2], a[0] - b[2], 0.0)
    dy = max(b[1] - a[3], a[1] - b[3], 0.0)
    return math.hypot(dx, dy)


def box_mindist_sq(a: FloatBox, b: FloatBox) -> float:
    """Squared box minimum distance.  The refinement prunes compare in
    squared space (against a squared threshold/best) so the scalar loop
    uses only ``max``/``*``/``+`` — operations the vectorized batch kernel
    (:func:`repro.exec.columnar.box_mindist_sq_batch`) reproduces with
    bit-identical IEEE semantics, unlike ``math.hypot``."""
    dx = max(b[0] - a[2], a[0] - b[2], 0.0)
    dy = max(b[1] - a[3], a[1] - b[3], 0.0)
    return dx * dx + dy * dy


class Feature:
    """A named spatial feature: a union of convex parts."""

    __slots__ = ("fid", "parts", "_part_boxes", "_part_arrays", "_bbox", "_rational_bbox")

    def __init__(self, fid: str, parts: Iterable[ConvexPolygon]):
        if not fid or not isinstance(fid, str):
            raise GeometryError(f"feature ids must be non-empty strings, got {fid!r}")
        self.fid = fid
        self.parts: tuple[ConvexPolygon, ...] = tuple(parts)
        if not self.parts:
            raise GeometryError(f"feature {fid!r} has no parts")
        self._part_boxes: tuple[FloatBox, ...] | None = None
        self._part_arrays = None
        self._bbox: FloatBox | None = None
        self._rational_bbox: BoundingBox | None = None

    def __setattr__(self, name: str, value: object) -> None:
        # Invalidate the cached boxes if the parts are ever reassigned, so
        # the caches can never serve boxes of a geometry that changed.
        object.__setattr__(self, name, value)
        if name == "parts":
            object.__setattr__(self, "_part_boxes", None)
            object.__setattr__(self, "_part_arrays", None)
            object.__setattr__(self, "_bbox", None)
            object.__setattr__(self, "_rational_bbox", None)

    def bounding_box(self) -> BoundingBox:
        """The exact rational bounding box of the whole feature (computed
        once; Buffer-Join consults it for every outer feature and the
        R*-tree build for every insert)."""
        box = self._rational_bbox
        if box is None:
            box = self.parts[0].bounding_box()
            for part in self.parts[1:]:
                box = box.union(part.bounding_box())
            self._rational_bbox = box
        return box

    def part_boxes(self) -> tuple[FloatBox, ...]:
        """Float bounding boxes of the convex parts (computed once)."""
        if self._part_boxes is None:
            self._part_boxes = tuple(
                _float_box(part.bounding_box()) for part in self.parts
            )
        return self._part_boxes

    def part_box_arrays(self):
        """The part boxes as cached ``(n, 2)`` lower/upper corner arrays —
        the columnar form the vectorized distance kernel broadcasts
        against."""
        arrays = self._part_arrays
        if arrays is None:
            boxes = _np.array(self.part_boxes(), dtype=float).reshape(-1, 4)
            arrays = self._part_arrays = (
                _np.ascontiguousarray(boxes[:, :2]),
                _np.ascontiguousarray(boxes[:, 2:]),
            )
        return arrays

    def float_bbox(self) -> FloatBox:
        """The whole feature's float bounding box (computed once)."""
        if self._bbox is None:
            boxes = self.part_boxes()
            self._bbox = (
                min(b[0] for b in boxes),
                min(b[1] for b in boxes),
                max(b[2] for b in boxes),
                max(b[3] for b in boxes),
            )
        return self._bbox

    def contains_point(self, point: Point) -> bool:
        return any(part.contains_point(point) for part in self.parts)

    def intersects(self, other: "Feature") -> bool:
        return any(
            mine.intersects(theirs) for mine in self.parts for theirs in other.parts
        )

    def distance(self, other: "Feature", cutoff: float | None = None) -> float:
        """Euclidean minimum distance between the two features (0 when they
        touch).

        Convex-part pairs whose bounding boxes are already further apart
        than the best distance found so far are skipped (their box
        distance lower-bounds their exact distance).  With ``cutoff``,
        pairs provably further apart than ``cutoff`` are skipped too: the
        result is then exact whenever it is ``<= cutoff`` and otherwise
        only guaranteed to exceed ``cutoff`` — sufficient for the
        threshold comparisons Buffer-Join and k-Nearest make, and far
        cheaper than the full exact distance.  Skipped pairs are recorded
        as ``spatial.refine.prunes``.

        Prunes compare in *squared* space so the box test is pure
        ``max``/``*``/``+``/compare; with the columnar fast path active
        and a large enough part-pair matrix, the box tests run as one
        vectorized batch (:meth:`_distance_columnar`) that makes the
        identical prune decisions in the identical order — same return
        value, same prune counters.
        """
        if _cx.columnar_active() and len(self.parts) * len(other.parts) >= _cx.MIN_BATCH:
            return self._distance_columnar(other, cutoff)
        best = math.inf
        best_sq = math.inf
        cutoff_sq = None if cutoff is None else cutoff * cutoff
        pruned = 0
        my_boxes = self.part_boxes()
        their_boxes = other.part_boxes()
        for mine, mbox in zip(self.parts, my_boxes):
            for theirs, tbox in zip(other.parts, their_boxes):
                lower_sq = box_mindist_sq(mbox, tbox)
                if lower_sq >= best_sq or (cutoff_sq is not None and lower_sq > cutoff_sq):
                    pruned += 1
                    continue
                exact = mine.distance(theirs)
                if exact < best:
                    best = exact
                    best_sq = best * best
            if best == 0.0:
                break  # the features touch; no pair can do better
        if pruned:
            record(SPATIAL_REFINE_PRUNES, pruned)
        return best

    def _distance_columnar(self, other: "Feature", cutoff: float | None) -> float:
        """The vectorized arm of :meth:`distance`.

        One ``box_mindist_sq_batch`` call per row of the part-pair matrix
        replaces the per-pair Python box tests; candidates surviving the
        row-entry mask are re-checked against the *evolving* best before
        their exact distance runs.  Because the batch kernel is
        elementwise-identical to :func:`box_mindist_sq` and the re-check
        reproduces the scalar loop's visit-time test, the sequence of
        exact-distance evaluations — and hence the result and the
        ``spatial.refine.prunes`` count — is identical to the scalar loop.
        """
        best = math.inf
        best_sq = math.inf
        cutoff_sq = None if cutoff is None else cutoff * cutoff
        pruned = 0
        candidates = 0
        their_lowers, their_uppers = other.part_box_arrays()
        my_boxes = self.part_boxes()
        n_theirs = len(other.parts)
        for mine, mbox in zip(self.parts, my_boxes):
            row = _cx.box_mindist_sq_batch(mbox, their_lowers, their_uppers)
            keep = row < best_sq
            if cutoff_sq is not None:
                keep &= row <= cutoff_sq
            indices = _np.nonzero(keep)[0]
            pruned += n_theirs - len(indices)
            candidates += len(indices)
            for j in indices:
                lower_sq = row[j]
                # The mask used best_sq at row start; best may have
                # shrunk since — re-apply the scalar loop's visit-time
                # test so prune decisions stay identical.
                if lower_sq >= best_sq:
                    pruned += 1
                    candidates -= 1
                    continue
                exact = mine.distance(other.parts[j])
                if exact < best:
                    best = exact
                    best_sq = best * best
            if best == 0.0:
                break  # the features touch; no pair can do better
        record(COLUMNAR_BATCHES)
        record(COLUMNAR_FILTERED, pruned)
        record(COLUMNAR_FALLBACK, candidates)
        if pruned:
            record(SPATIAL_REFINE_PRUNES, pruned)
        return best

    def __repr__(self) -> str:
        return f"<Feature {self.fid}: {len(self.parts)} convex parts>"


def default_spatial_schema(fid_attr: str = "fid", x: str = "x", y: str = "y") -> Schema:
    """The canonical spatial constraint relation schema of section 4.2."""
    return Schema([relational(fid_attr), constraint(x), constraint(y)])


class FeatureSet:
    """A collection of features with relation ⇄ feature conversion and an
    R*-tree over feature bounding boxes."""

    def __init__(
        self,
        features: Iterable[Feature],
        fid_attr: str = "fid",
        x: str = "x",
        y: str = "y",
    ):
        self.fid_attr = fid_attr
        self.x = x
        self.y = y
        self._features: dict[str, Feature] = {}
        for feature in features:
            if feature.fid in self._features:
                raise GeometryError(f"duplicate feature id {feature.fid!r}")
            self._features[feature.fid] = feature
        self._index: RStarTree | None = None
        self._columnar_boxes = None

    # -- conversion ----------------------------------------------------------

    @classmethod
    def from_relation(
        cls,
        relation: ConstraintRelation,
        fid_attr: str = "fid",
        x: str = "x",
        y: str = "y",
    ) -> "FeatureSet":
        """Group tuples by feature ID and enumerate each tuple's convex
        part.  The relation must have ``fid_attr`` as a string relational
        attribute and ``x``/``y`` as constraint attributes; this is the
        costly constraint→geometry conversion of section 6.2."""
        schema = relation.schema
        fid_def = schema[fid_attr]
        if not fid_def.is_relational or fid_def.data_type is not DataType.STRING:
            raise SchemaError(f"{fid_attr!r} must be a string relational attribute")
        for spatial in (x, y):
            if not schema[spatial].is_constraint:
                raise SchemaError(f"{spatial!r} must be a constraint attribute")
        grouped: dict[str, list[ConvexPolygon]] = {}
        for t in relation:
            fid = t.value(fid_attr)
            if isinstance(fid, Null):
                raise SchemaError("a spatial tuple has a NULL feature id")
            polygon = ConvexPolygon.from_conjunction(t.formula.project((x, y)), x, y)
            grouped.setdefault(fid, []).append(polygon)
        return cls(
            (Feature(fid, parts) for fid, parts in grouped.items()),
            fid_attr=fid_attr,
            x=x,
            y=y,
        )

    def to_relation(self, name: str | None = None) -> ConstraintRelation:
        """The spatial constraint relation form: one tuple per convex part
        (the geometry→constraint conversion)."""
        schema = default_spatial_schema(self.fid_attr, self.x, self.y)
        tuples = []
        for feature in self:
            for part in feature.parts:
                formula: Conjunction = part.to_conjunction(self.x, self.y)
                tuples.append(HTuple(schema, {self.fid_attr: feature.fid}, formula))
        return ConstraintRelation(schema, tuples, name)

    # -- access ----------------------------------------------------------------

    def __iter__(self) -> Iterator[Feature]:
        return iter(self._features.values())

    def __len__(self) -> int:
        return len(self._features)

    def __contains__(self, fid: object) -> bool:
        return fid in self._features

    def __getitem__(self, fid: str) -> Feature:
        try:
            return self._features[fid]
        except KeyError:
            raise GeometryError(f"no feature named {fid!r}") from None

    @property
    def features(self) -> Mapping[str, Feature]:
        return dict(self._features)

    # -- indexing ----------------------------------------------------------------

    def index(self) -> RStarTree:
        """The (lazily built) R*-tree over feature bounding boxes; payloads
        are feature ids."""
        if self._index is None:
            tree = RStarTree(dimensions=2, max_entries=16)
            for feature in self:
                fb = feature.float_bbox()  # widened: contains the exact box
                tree.insert(MBR((fb[0], fb[1]), (fb[2], fb[3])), feature.fid)
            self._index = tree
        return self._index

    def feature_mbr(self, fid: str) -> MBR:
        fb = self[fid].float_bbox()
        return MBR((fb[0], fb[1]), (fb[2], fb[3]))

    def columnar_boxes(self):
        """The whole-feature float bounding boxes in columnar form:
        ``(fid -> row index, (n, 2) lower corners, (n, 2) upper corners)``,
        cached — Buffer-Join's batched candidate prune gathers candidate
        rows from these arrays instead of touching each feature object."""
        cached = self._columnar_boxes
        if cached is None:
            fids = list(self._features)
            boxes = _np.array(
                [self._features[fid].float_bbox() for fid in fids], dtype=float
            ).reshape(-1, 4)
            cached = self._columnar_boxes = (
                {fid: i for i, fid in enumerate(fids)},
                _np.ascontiguousarray(boxes[:, :2]),
                _np.ascontiguousarray(boxes[:, 2:]),
            )
        return cached

    def __repr__(self) -> str:
        return f"<FeatureSet: {len(self)} features over ({self.x}, {self.y})>"
