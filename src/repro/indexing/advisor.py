"""Attribute-grouping advisor: a heuristic for the paper's open problem.

    "Given a constraint relation over attributes X = {x₁, …, x_k},
    determine a set of subsets of X that should correspond to indices
    over X, with one index per subset." (section 5.4)

The paper observes that the answer depends on "the selectivity of various
attributes and the kinds of queries that are 'typical'".  This module
implements a workload-driven heuristic:

1. Build a co-occurrence graph over attributes, weighting each edge by the
   frequency with which the two attributes are queried together.
2. Threshold the graph and take connected components as candidate groups
   (attributes queried together belong in one joint index — the Figure 4
   result; attributes queried alone get their own 1-D index — Figure 5).
3. Score candidate groupings with a disk-access cost model calibrated to
   the experiments' shape, and keep the cheapest.

This is explicitly a *heuristic* for an open problem; the tests assert its
qualitative behaviour (joint for co-queried attributes, separate for
independently queried ones), not optimality.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from ..errors import IndexStructureError


@dataclass(frozen=True)
class WorkloadQuery:
    """One query template: the set of attributes it constrains, its
    relative frequency, and the per-attribute selectivity (fraction of
    tuples matching that attribute's range)."""

    attributes: frozenset[str]
    frequency: float = 1.0
    selectivity: float = 0.1

    def __post_init__(self) -> None:
        if not self.attributes:
            raise IndexStructureError("a workload query must constrain at least one attribute")
        if not 0 < self.selectivity <= 1:
            raise IndexStructureError(f"selectivity must be in (0, 1], got {self.selectivity}")
        if self.frequency <= 0:
            raise IndexStructureError(f"frequency must be positive, got {self.frequency}")


@dataclass
class Recommendation:
    """The advisor's output: attribute groups plus the estimated cost."""

    groups: tuple[frozenset[str], ...]
    estimated_cost: float
    alternatives: list[tuple[tuple[frozenset[str], ...], float]] = field(default_factory=list)

    def __str__(self) -> str:
        rendered = ", ".join("{" + ", ".join(sorted(g)) + "}" for g in self.groups)
        return f"index groups [{rendered}] (estimated cost {self.estimated_cost:.1f})"


def estimate_query_cost(
    query: WorkloadQuery,
    grouping: Sequence[frozenset[str]],
    relation_size: int,
    fanout: int = 50,
) -> float:
    """Disk accesses for one query under a grouping.

    Model (calibrated to the section 5.4 shapes):

    * each index over group ``g`` with ``q = g ∩ query`` queried dimensions
      is searched once; unqueried dimensions are unconstrained, so the
      candidate fraction is ``selectivity^|q|``;
    * a search costs the root-to-leaf height plus one access per ``fanout``
      candidates (leaf scanning dominates at low selectivity);
    * with several groups touched, costs *add* (the paper's sum rule), and
      the id-set intersection is free (done in memory).

    Groups disjoint from the query cost nothing; if no group covers some
    queried attribute, the uncovered attribute simply does not prune
    (the exact post-filter handles it), which the model charges as a full
    scan fallback only when *no* queried attribute is covered.
    """
    if relation_size <= 0:
        return 0.0
    height = max(1.0, math.log(max(relation_size, fanout), fanout))
    total = 0.0
    covered: set[str] = set()
    for group in grouping:
        queried = group & query.attributes
        if not queried:
            continue
        covered |= queried
        candidate_fraction = query.selectivity ** len(queried)
        # Unqueried dimensions of a joint index widen to the full domain,
        # adding dead space along the search path (the Figure 5 effect:
        # separate 1-D indexes mildly beat a joint index for one-attribute
        # queries).  Charge 50% extra leaf work per unused dimension.
        dead_space = 1.0 + 0.5 * (len(group) - len(queried))
        leaf_pages = max(1.0, relation_size * candidate_fraction / fanout) * dead_space
        total += height + leaf_pages
    if not covered:
        return relation_size / fanout  # full scan
    return total


def _components(attributes: Sequence[str], edges: Iterable[tuple[str, str]]) -> list[set[str]]:
    """Connected components of the graph over ``attributes`` (union-find)."""
    parent = {a: a for a in attributes}

    def find(a: str) -> str:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in edges:
        parent[find(a)] = find(b)
    groups: dict[str, set[str]] = {}
    for a in attributes:
        groups.setdefault(find(a), set()).add(a)
    return list(groups.values())


def _candidate_groupings(
    attributes: Sequence[str], edges: Mapping[tuple[str, str], float]
) -> list[tuple[frozenset[str], ...]]:
    """Candidate groupings: thresholded connected components of the
    co-occurrence graph (``edges`` maps an attribute pair to its weight)
    at every distinct edge weight, plus the all-separate and all-joint
    extremes."""
    candidates: list[tuple[frozenset[str], ...]] = []
    seen: set[tuple[frozenset[str], ...]] = set()

    def push(groups: Iterable[frozenset[str]]) -> None:
        key = tuple(sorted((frozenset(g) for g in groups), key=sorted))
        if key not in seen:
            seen.add(key)
            candidates.append(key)

    push(frozenset({a}) for a in attributes)
    push([frozenset(attributes)])
    for threshold in sorted(set(edges.values()), reverse=True):
        kept = (pair for pair, weight in edges.items() if weight >= threshold)
        push(frozenset(component) for component in _components(attributes, kept))
    return candidates


def recommend_grouping(
    attributes: Sequence[str],
    workload: Sequence[WorkloadQuery],
    relation_size: int,
    fanout: int = 50,
) -> Recommendation:
    """Choose index groups for ``attributes`` given a query workload."""
    attributes = list(dict.fromkeys(attributes))
    if not attributes:
        raise IndexStructureError("no attributes to group")
    if not workload:
        raise IndexStructureError("an empty workload cannot guide grouping")
    unknown = {a for q in workload for a in q.attributes} - set(attributes)
    if unknown:
        raise IndexStructureError(f"workload queries unknown attributes {sorted(unknown)}")
    edges: dict[tuple[str, str], float] = {}
    for query in workload:
        for pair in itertools.combinations(sorted(query.attributes), 2):
            edges[pair] = edges.get(pair, 0) + query.frequency
    scored: list[tuple[tuple[frozenset[str], ...], float]] = []
    for grouping in _candidate_groupings(attributes, edges):
        cost = sum(
            q.frequency * estimate_query_cost(q, grouping, relation_size, fanout)
            for q in workload
        )
        scored.append((grouping, cost))
    scored.sort(key=lambda pair: (pair[1], sum(len(g) for g in pair[0])))
    best_groups, best_cost = scored[0]
    return Recommendation(best_groups, best_cost, alternatives=scored[1:])
