"""The Constraint Query Algebra (CQA) — section 2.4 of the paper.

Public surface:

* :mod:`~repro.algebra.operators` — the six primitives as functions over
  relations: :func:`select`, :func:`project`, :func:`natural_join`,
  :func:`union`, :func:`rename`, :func:`difference` (plus the
  :func:`intersection` / :func:`cross_product` special cases).
* :mod:`~repro.algebra.plan` — plan nodes and :func:`evaluate`.
* :mod:`~repro.algebra.optimizer` — rule-based plan rewriting.
* :mod:`~repro.algebra.safety` — the closed-form safety check.
* :class:`StringPredicate` — relational string selection conjuncts.
"""

from .indefinite import select_certain, select_possible
from .operators import (
    cross_product,
    difference,
    intersection,
    natural_join,
    project,
    rename,
    select,
    union,
)
from .plan import (
    Difference,
    EvaluationContext,
    IndexScan,
    Join,
    Metrics,
    PlanNode,
    Project,
    Rename,
    Scan,
    Select,
    Union,
    evaluate,
)
from .optimizer import Optimizer, optimize
from .predicates import Predicate, StringPredicate
from .safety import UnsafeDistance, check_safe, is_safe

__all__ = [
    "Difference",
    "EvaluationContext",
    "IndexScan",
    "Join",
    "Metrics",
    "Optimizer",
    "PlanNode",
    "Predicate",
    "Project",
    "Rename",
    "Scan",
    "Select",
    "StringPredicate",
    "Union",
    "UnsafeDistance",
    "check_safe",
    "cross_product",
    "difference",
    "evaluate",
    "intersection",
    "is_safe",
    "natural_join",
    "optimize",
    "project",
    "rename",
    "select",
    "select_certain",
    "select_possible",
    "union",
]
