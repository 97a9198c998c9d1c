"""k-Nearest: the second whole-feature operator of section 4.

``KNearest(R, q, k)`` returns the ``k`` features of R closest (Euclidean)
to the query feature ``q``, as a relation over a feature-ID attribute and a
rank attribute.  Like Buffer-Join it is **safe**: ranks and feature IDs are
relational values; the (irrational) distances themselves never appear in
the output.

Evaluation is incremental best-first search over the feature-MBR R*-tree
(Hjaltason–Samet) with exact refinement: candidates stream out of the tree
in MINDIST order; because MBR MINDIST lower-bounds the exact feature
distance, the k best exact distances are final once the next candidate's
MINDIST exceeds the current k-th exact distance.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from ..errors import GeometryError, ResourceExhausted
from ..governor.budget import ProducerGuard
from ..model.relation import ConstraintRelation
from ..model.schema import Schema, relational
from ..model.tuples import HTuple
from ..model.types import DataType
from ..obs import LOGICAL_NODE_ACCESSES, MetricsRegistry, current_registry
from .features import Feature, FeatureSet


@dataclass
class KNearestStatistics:
    candidates_refined: int = 0
    index_accesses: int = 0


def k_nearest_features(
    features: FeatureSet,
    query: Feature,
    k: int,
    statistics: KNearestStatistics | None = None,
    registry: MetricsRegistry | None = None,
) -> list[tuple[Feature, float]]:
    """The ``k`` nearest features with their exact distances, nearest
    first; the returned list is sorted by (distance, feature id), and the
    candidate stream is deterministic, so results are reproducible.  The
    query feature itself is excluded when it belongs to the set.

    ``stats.index_accesses`` is attributed with a scoped counter on
    ``registry`` (the active registry when not given): only this call's
    node visits count, even when the index is shared within one plan."""
    if k < 1:
        raise GeometryError(f"k must be >= 1, got {k}")
    stats = statistics if statistics is not None else KNearestStatistics()
    reg = registry if registry is not None else current_registry()
    index = features.index()
    index.bind_registry(reg)
    # Widened float target box (mins down, maxs up): it contains the exact
    # box, so MINDIST from it only shrinks — the lower-bound property the
    # best-first termination test relies on survives the float conversion.
    fb = query.float_bbox()
    from ..indexing.mbr import MBR

    target = MBR((fb[0], fb[1]), (fb[2], fb[3]))
    # Max-heap (negated distances) of the best k exact results so far.
    # Exhaustion mid-search truncates to the best results found so far in
    # partial mode — a sound (if possibly incomplete) nearest set.
    best: list[tuple[float, str]] = []
    guard = ProducerGuard()
    with reg.scope("k_nearest") as scoped:
        try:
            for mindist, fid in index.nearest_iter(target):
                if not guard.start_row():
                    break
                if fid == query.fid and fid in features and features[fid] is query:
                    continue
                if len(best) == k and mindist > -best[0][0]:
                    break  # no remaining candidate can beat the current k-th
                # Once the heap is full, the current k-th distance is a cutoff:
                # part pairs provably beyond it are skipped inside distance().
                # A candidate truly within the cutoff still gets its exact
                # distance; one beyond it yields some value > cutoff, which the
                # heap comparison rejects just the same.
                cutoff = -best[0][0] if len(best) == k else None
                exact = query.distance(features[fid], cutoff=cutoff)
                stats.candidates_refined += 1
                entry = (-exact, fid)
                if len(best) < k:
                    heapq.heappush(best, entry)
                elif entry > best[0]:  # smaller distance, or equal with smaller fid
                    heapq.heapreplace(best, entry)
        except ResourceExhausted as exc:
            if not guard.absorb(exc):
                raise
    stats.index_accesses += scoped.get(LOGICAL_NODE_ACCESSES, 0)
    ordered = sorted(((-negated, fid) for negated, fid in best))
    return [(features[fid], distance) for distance, fid in ordered]


def k_nearest(
    features: FeatureSet,
    query: Feature,
    k: int,
    fid_attr: str = "fid",
    rank_attr: str = "rank",
    statistics: KNearestStatistics | None = None,
    registry: MetricsRegistry | None = None,
) -> ConstraintRelation:
    """The whole-feature operator: a relation of ``(feature id, rank)``
    rows, rank 1 = nearest.  Both attributes are relational, so the query
    is safe (section 4)."""
    if fid_attr == rank_attr:
        raise GeometryError("output attributes must have distinct names")
    schema = Schema([relational(fid_attr), relational(rank_attr, DataType.RATIONAL)])
    results = k_nearest_features(features, query, k, statistics, registry)
    guard = ProducerGuard()
    tuples: list[HTuple] = []
    for rank, (feature, _) in enumerate(results, start=1):
        if not guard.produced():
            break
        tuples.append(HTuple(schema, {fid_attr: feature.fid, rank_attr: rank}))
    return ConstraintRelation(schema, tuples)


def k_nearest_bruteforce(
    features: FeatureSet, query: Feature, k: int
) -> list[tuple[Feature, float]]:
    """Reference implementation: exact distance to every feature, sorted."""
    scored = sorted(
        (query.distance(candidate), candidate.fid)
        for candidate in features
        if candidate is not query
    )
    return [(features[fid], distance) for distance, fid in scored[:k]]
