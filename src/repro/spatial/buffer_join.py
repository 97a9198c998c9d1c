"""Buffer-Join: the first whole-feature operator of section 4.

``BufferJoin(R, S, d)`` pairs every feature of R with every feature of S
whose Euclidean distance is at most ``d``.  The output is a relation over
two *relational* feature-ID attributes — no distance value ever appears in
the output, which is exactly why the operator is **safe** (the raw
``distance`` operator is not: its output would leave the linear constraint
class).

Evaluation is the classic two-step spatial join (Brinkhoff et al.):

1. *filter* — search the S-side R*-tree with each R feature's bounding box
   expanded by ``d`` (an MBR-distance lower bound);
2. *refine* — compute the exact convex-part distance for the survivors,
   with two extra per-candidate prunes: the Euclidean box distance between
   the whole features (the index filter is an L∞ box overlap test, so
   diagonal neighbours slip through it), and per part-pair box distances
   inside :meth:`Feature.distance` driven by ``cutoff=d``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import GeometryError, ResourceExhausted
from ..exec import columnar as _cx
from ..governor.budget import ProducerGuard
from ..indexing.mbr import MBR
from ..model.relation import ConstraintRelation
from ..model.schema import Schema, relational
from ..model.tuples import HTuple
from ..obs import (
    COLUMNAR_BATCHES,
    COLUMNAR_FALLBACK,
    COLUMNAR_FILTERED,
    LOGICAL_NODE_ACCESSES,
    SPATIAL_REFINE_PRUNES,
    MetricsRegistry,
    current_registry,
    record,
)
from ..rational import RationalLike, float_down, float_up, to_rational
from .features import Feature, FeatureSet, box_mindist_sq


def _query_mbr(feature: Feature, d) -> MBR:
    """The widened float query box: the exact bounding box expanded by
    ``d``, with mins rounded down and maxs up so no boundary candidate
    can be lost to float narrowing."""
    box = feature.bounding_box().expand(d)
    return MBR(
        (float_down(box.min_x), float_down(box.min_y)),
        (float_up(box.max_x), float_up(box.max_y)),
    )


def _batched_dists_sq(feature_box, right: FeatureSet, candidates, d_sq: float):
    """Squared whole-feature box distances for one candidate list as one
    vectorized batch, or ``None`` to bypass to the scalar per-candidate
    test.  The kernel is elementwise-identical to
    :func:`~repro.spatial.features.box_mindist_sq`, so the per-candidate
    prune decisions (and statistics) are unchanged — only the Python-level
    box arithmetic is batched away."""
    if not _cx.columnar_active() or len(candidates) < _cx.MIN_BATCH:
        return None
    rowmap, lowers, uppers = right.columnar_boxes()
    rows = [rowmap[fid] for fid in candidates]
    dists = _cx.box_mindist_sq_batch(feature_box, lowers[rows], uppers[rows])
    over = int((dists > d_sq).sum())
    record(COLUMNAR_BATCHES)
    record(COLUMNAR_FILTERED, over)
    record(COLUMNAR_FALLBACK, len(candidates) - over)
    return dists


@dataclass
class BufferJoinStatistics:
    """Filter/refine effectiveness counters for one run."""

    candidate_pairs: int = 0
    result_pairs: int = 0
    index_accesses: int = 0
    #: Candidates rejected by the whole-feature Euclidean box distance
    #: before any exact part-pair distance was computed.
    pruned_pairs: int = 0

    @property
    def refinement_rate(self) -> float:
        return self.result_pairs / self.candidate_pairs if self.candidate_pairs else 0.0


def buffer_join(
    left: FeatureSet,
    right: FeatureSet,
    distance: RationalLike,
    left_attr: str = "fid1",
    right_attr: str = "fid2",
    statistics: BufferJoinStatistics | None = None,
    registry: MetricsRegistry | None = None,
) -> ConstraintRelation:
    """All pairs ``(left feature, right feature)`` within ``distance``.

    Returns a relation over two string relational attributes, keyed by
    feature IDs (section 4's whole-feature contract).  Joining a feature
    set with itself pairs distinct features only (a feature is trivially
    within any distance of itself).

    Index accesses are attributed through a scoped counter on ``registry``
    (the active registry when not given), so ``stats.index_accesses`` is
    exactly this call's work even when the index is shared with other
    operators in one plan — a delta-read of ``index.search_accesses``
    cannot make that distinction.
    """
    d = to_rational(distance)
    if d < 0:
        raise GeometryError(f"buffer distance must be non-negative, got {d}")
    if left_attr == right_attr:
        raise GeometryError("output attributes must have distinct names")
    schema = Schema([relational(left_attr), relational(right_attr)])
    stats = statistics if statistics is not None else BufferJoinStatistics()
    reg = registry if registry is not None else current_registry()
    index = right.index()
    index.bind_registry(reg)
    d_float = float(d)
    d_sq = d_float * d_float
    guard = ProducerGuard()
    tuples: list[HTuple] = []
    self_join = left is right
    stopped = False
    with reg.scope("buffer_join") as scoped:
        for feature in left:
            if stopped or not guard.start_row():
                break
            try:
                candidates = index.search(_query_mbr(feature, d))
                feature_box = feature.float_bbox()
                dists_sq = _batched_dists_sq(feature_box, right, candidates, d_sq)
                for pos, fid in enumerate(candidates):
                    if self_join and fid == feature.fid:
                        continue
                    stats.candidate_pairs += 1
                    candidate = right[fid]
                    # The index filter is an L∞ test (box expanded by d on each
                    # axis); the Euclidean box distance is tighter on diagonal
                    # neighbours and still lower-bounds the exact distance.
                    lower_sq = (
                        dists_sq[pos]
                        if dists_sq is not None
                        else box_mindist_sq(feature_box, candidate.float_bbox())
                    )
                    if lower_sq > d_sq:
                        stats.pruned_pairs += 1
                        record(SPATIAL_REFINE_PRUNES)
                        continue
                    if feature.distance(candidate, cutoff=d_float) <= d_float:
                        if not guard.produced():
                            stopped = True
                            break
                        stats.result_pairs += 1
                        tuples.append(
                            HTuple(schema, {left_attr: feature.fid, right_attr: fid})
                        )
            except ResourceExhausted as exc:
                if not guard.absorb(exc):
                    raise
                break
    stats.index_accesses += scoped.get(LOGICAL_NODE_ACCESSES, 0)
    return ConstraintRelation(schema, tuples)


def buffer_join_bruteforce(
    left: FeatureSet,
    right: FeatureSet,
    distance: RationalLike,
    left_attr: str = "fid1",
    right_attr: str = "fid2",
) -> ConstraintRelation:
    """Reference implementation without the index filter step (used by the
    tests and as the baseline in ``benchmarks/bench_spatial_operators.py``)."""
    d = float(to_rational(distance))
    schema = Schema([relational(left_attr), relational(right_attr)])
    self_join = left is right
    tuples = [
        HTuple(schema, {left_attr: a.fid, right_attr: b.fid})
        for a in left
        for b in right
        if not (self_join and a.fid == b.fid) and a.distance(b) <= d
    ]
    return ConstraintRelation(schema, tuples)
