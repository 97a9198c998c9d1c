"""Logical query plans for CQA.

"The algebraic expressions represent a 'plan' or a 'recipe' for evaluating
a query" (section 2.2).  A plan is a tree of :class:`PlanNode`; evaluation
walks the tree bottom-up against an :class:`EvaluationContext` (database +
optional index catalog + metrics).  The optimizer
(:mod:`repro.algebra.optimizer`) rewrites plan trees before evaluation.

Spatial whole-feature operators (Buffer-Join, k-Nearest) define their own
node classes in :mod:`repro.spatial.plan_nodes`, subclassing
:class:`PlanNode`; the algebra core stays independent of the spatial layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..errors import AlgebraError
from ..governor.budget import checkpoint as budget_checkpoint
from ..model.database import Database
from ..model.relation import ConstraintRelation
from ..obs import LOGICAL_NODE_ACCESSES, TUPLES_PRODUCED, MetricsRegistry
from . import operators
from .predicates import Predicate


@dataclass
class Metrics:
    """Counters accumulated during plan evaluation.

    A thin per-context view kept for backwards compatibility; every count
    is mirrored into the context's :class:`~repro.obs.MetricsRegistry`
    (``operator.<name>.calls`` / ``operator.<name>.rows``), which is the
    authoritative store new consumers should read.
    """

    operator_calls: dict[str, int] = field(default_factory=dict)
    tuples_produced: int = 0
    index_node_accesses: int = 0
    index_candidates: int = 0
    registry: MetricsRegistry | None = None

    def count(self, operator: str, produced: int) -> None:
        self.operator_calls[operator] = self.operator_calls.get(operator, 0) + 1
        self.tuples_produced += produced
        if self.registry is not None:
            self.registry.add(f"operator.{operator}.calls")
            self.registry.add(f"operator.{operator}.rows", produced)
            self.registry.add(TUPLES_PRODUCED, produced)


class EvaluationContext:
    """Everything a plan needs at run time.

    ``indexes`` maps relation name → {frozenset(attribute names) → index
    strategy} (see :mod:`repro.indexing.strategy`); plans produced by the
    optimizer's index-selection rule consult it.  Every strategy in the
    catalog is bound to the context's metrics ``registry`` so node
    accesses are attributable with scoped counters.
    """

    def __init__(
        self,
        database: Database,
        indexes: Mapping[str, Mapping[frozenset[str], object]] | None = None,
        registry: MetricsRegistry | None = None,
    ):
        self.database = database
        self.indexes = {k: dict(v) for k, v in (indexes or {}).items()}
        self.registry = registry if registry is not None else MetricsRegistry()
        self.metrics = Metrics(registry=self.registry)
        for strategies in self.indexes.values():
            for strategy in strategies.values():
                bind = getattr(strategy, "bind_registry", None)
                if bind is not None:
                    bind(self.registry)


class PlanNode:
    """Base class of all plan nodes.

    ``safe`` declares whether the operator's output stays within the
    system's constraint class (section 2.4's closed-form requirement); the
    safety checker (:mod:`repro.algebra.safety`) rejects plans containing
    unsafe nodes before evaluation.

    :meth:`evaluate` is a template method: it opens a tracing span on the
    context's registry (wall-clock via ``perf_counter``, scoped counter
    capture, output row count) around the operator logic in
    :meth:`_evaluate`, which is what subclasses implement.
    """

    safe: bool = True

    @property
    def children(self) -> tuple["PlanNode", ...]:
        return ()

    def evaluate(self, context: EvaluationContext) -> ConstraintRelation:
        """Evaluate under a span named after the operator; the nested span
        tree of one top-level call is ``registry.last_trace`` afterwards
        (what ``EXPLAIN ANALYZE`` renders)."""
        budget_checkpoint()  # coarse per-node cancellation point
        with context.registry.trace(self.describe(), kind=type(self).__name__) as span:
            result = self._evaluate(context)
            span.rows = len(result)
            return result

    def _evaluate(self, context: EvaluationContext) -> ConstraintRelation:
        raise NotImplementedError

    def with_children(self, children: Sequence["PlanNode"]) -> "PlanNode":
        """Rebuild this node over new children (used by rewrite rules)."""
        if children:
            raise AlgebraError(f"{type(self).__name__} takes no children")
        return self

    def describe(self) -> str:
        """One-line description used in plan pretty-printing."""
        return type(self).__name__

    def pretty(self, indent: int = 0) -> str:
        lines = ["  " * indent + self.describe()]
        for child in self.children:
            lines.append(child.pretty(indent + 1))
        return "\n".join(lines)


class Scan(PlanNode):
    """Read a named base relation from the database."""

    def __init__(self, relation_name: str):
        self.relation_name = relation_name

    def _evaluate(self, context: EvaluationContext) -> ConstraintRelation:
        relation = context.database.get(self.relation_name)
        context.metrics.count("scan", len(relation))
        return relation

    def describe(self) -> str:
        return f"Scan({self.relation_name})"


class Select(PlanNode):
    """ς — selection by a conjunction of predicates."""

    def __init__(self, child: PlanNode, predicates: Sequence[Predicate]):
        self.child = child
        self.predicates = tuple(predicates)

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[PlanNode]) -> "Select":
        (child,) = children
        return Select(child, self.predicates)

    def _evaluate(self, context: EvaluationContext) -> ConstraintRelation:
        result = operators.select(self.child.evaluate(context), self.predicates)
        context.metrics.count("select", len(result))
        return result

    def describe(self) -> str:
        return f"Select({', '.join(str(p) for p in self.predicates)})"


class Project(PlanNode):
    """π — projection onto an attribute list."""

    def __init__(self, child: PlanNode, attributes: Sequence[str]):
        self.child = child
        self.attributes = tuple(attributes)

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[PlanNode]) -> "Project":
        (child,) = children
        return Project(child, self.attributes)

    def _evaluate(self, context: EvaluationContext) -> ConstraintRelation:
        result = operators.project(self.child.evaluate(context), self.attributes)
        context.metrics.count("project", len(result))
        return result

    def describe(self) -> str:
        return f"Project({', '.join(self.attributes)})"


class Join(PlanNode):
    """⋈ — natural join."""

    def __init__(self, left: PlanNode, right: PlanNode):
        self.left = left
        self.right = right

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    def with_children(self, children: Sequence[PlanNode]) -> "Join":
        left, right = children
        return Join(left, right)

    def _evaluate(self, context: EvaluationContext) -> ConstraintRelation:
        result = operators.natural_join(
            self.left.evaluate(context), self.right.evaluate(context)
        )
        context.metrics.count("join", len(result))
        return result


class Union(PlanNode):
    """∪ — union of union-compatible relations."""

    def __init__(self, left: PlanNode, right: PlanNode):
        self.left = left
        self.right = right

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    def with_children(self, children: Sequence[PlanNode]) -> "Union":
        left, right = children
        return Union(left, right)

    def _evaluate(self, context: EvaluationContext) -> ConstraintRelation:
        result = operators.union(self.left.evaluate(context), self.right.evaluate(context))
        context.metrics.count("union", len(result))
        return result


class Difference(PlanNode):
    """− — set difference of union-compatible relations."""

    def __init__(self, left: PlanNode, right: PlanNode):
        self.left = left
        self.right = right

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    def with_children(self, children: Sequence[PlanNode]) -> "Difference":
        left, right = children
        return Difference(left, right)

    def _evaluate(self, context: EvaluationContext) -> ConstraintRelation:
        result = operators.difference(
            self.left.evaluate(context), self.right.evaluate(context)
        )
        context.metrics.count("difference", len(result))
        return result


class Rename(PlanNode):
    """ϱ — attribute rename."""

    def __init__(self, child: PlanNode, old: str, new: str):
        self.child = child
        self.old = old
        self.new = new

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[PlanNode]) -> "Rename":
        (child,) = children
        return Rename(child, self.old, self.new)

    def _evaluate(self, context: EvaluationContext) -> ConstraintRelation:
        result = operators.rename(self.child.evaluate(context), self.old, self.new)
        context.metrics.count("rename", len(result))
        return result

    def describe(self) -> str:
        return f"Rename({self.old} -> {self.new})"


class IndexScan(PlanNode):
    """Index-assisted selection over a base relation.

    Produced by the optimizer when an index covers (a subset of) the
    attributes a selection constrains.  The index prunes to candidate
    tuples; the full predicate list is then applied exactly, so the result
    equals ``Select(Scan(name), predicates)``.
    """

    def __init__(
        self,
        relation_name: str,
        predicates: Sequence[Predicate],
        index_attributes: frozenset[str],
    ):
        self.relation_name = relation_name
        self.predicates = tuple(predicates)
        self.index_attributes = index_attributes

    def _evaluate(self, context: EvaluationContext) -> ConstraintRelation:
        from ..indexing.strategy import query_box_for_predicates

        strategies = context.indexes.get(self.relation_name, {})
        strategy = strategies.get(self.index_attributes)
        if strategy is None:
            raise AlgebraError(
                f"no index on {sorted(self.index_attributes)} for relation "
                f"{self.relation_name!r}; optimizer and context disagree"
            )
        relation = context.database.get(self.relation_name)
        box = query_box_for_predicates(self.predicates, self.index_attributes)
        # Scoped attribution: capture only the node accesses this query
        # makes, even when other operators in the plan share the index (a
        # delta-read of ``strategy.accesses`` cannot tell them apart).
        bind = getattr(strategy, "bind_registry", None)
        if bind is not None:
            bind(context.registry)
        with context.registry.scope("index_scan") as scoped:
            candidate_ids = strategy.query(box)
        context.metrics.index_node_accesses += scoped.get(LOGICAL_NODE_ACCESSES, 0)
        context.metrics.index_candidates += len(candidate_ids)
        candidates = ConstraintRelation(
            relation.schema, (relation.tuples[i] for i in sorted(candidate_ids))
        )
        result = operators.select(candidates, self.predicates)
        context.metrics.count("index_scan", len(result))
        return result

    def describe(self) -> str:
        return (
            f"IndexScan({self.relation_name} via {sorted(self.index_attributes)}; "
            f"{', '.join(str(p) for p in self.predicates)})"
        )


def evaluate(plan: PlanNode, context: EvaluationContext) -> ConstraintRelation:
    """Evaluate a plan after checking it is safe (section 2.4)."""
    from .safety import check_safe

    check_safe(plan)
    return plan.evaluate(context)
