"""The six CQA primitive operators over heterogeneous constraint relations.

Each operator follows the paper's three-clause definition (section 2.4):
syntax (the function signature), argument conditions and result arity (the
schema computation), and semantics (sets of points).  The implementations
manipulate the finite representation — relational values and constraint
conjunctions — and the test suite verifies the *semantic closure principle*
(section 2.5): the results agree with relational algebra over the
corresponding infinite point sets.

All operators return new relations; inputs are never mutated.

Tuple-producing loops are governed: each row boundary consults the active
:class:`~repro.governor.Budget` (deadline + output-tuple cap) through a
:class:`~repro.governor.ProducerGuard`, which is a single attribute test
when no budget is active.  In ``on_exhausted="partial"`` mode exhaustion
truncates the loop — the operator returns the tuples materialized so far —
instead of raising.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..constraints import Conjunction, DNFFormula, LinearConstraint, LinearExpression, solver
from ..errors import AlgebraError, ResourceExhausted
from ..exec import columnar
from ..governor.budget import ProducerGuard
from ..model.relation import ConstraintRelation
from ..model.schema import Schema
from ..model.tuples import HTuple
from ..model.types import Null, Value
from ..obs import (
    COLUMNAR_BATCHES,
    COLUMNAR_BYPASSED,
    COLUMNAR_FALLBACK,
    COLUMNAR_FILTERED,
    record,
)
from .predicates import Predicate, StringPredicate, validate_predicates


def _select_survivor(t: HTuple, predicates: Sequence[Predicate]) -> HTuple | None:
    """One tuple's selection work: predicate evaluation, conjoining, and
    the satisfiability decision.  ``None`` means the tuple vanishes.

    The per-row body of :func:`filter_tuples`.
    """
    atoms: list[LinearConstraint] = []
    for predicate in predicates:
        if isinstance(predicate, StringPredicate):
            if not predicate.matches(t):
                return None
            continue
        substituted = t.substitute_relational(predicate.expression)
        if substituted is None:  # a NULL relational value was mentioned
            return None
        atom = LinearConstraint(substituted, predicate.comparator)
        if atom.is_trivial:
            if not atom.truth_value():
                return None
            continue
        atoms.append(atom)
    survivor = t.conjoin(atoms) if atoms else t
    # Decide satisfiability here, inside the guarded row, so the solve is
    # cancellable/absorbable; the relation constructor's own emptiness
    # check then hits the per-formula cache.
    if survivor.is_empty():
        return None
    return survivor


def filter_tuples(
    tuples: Sequence[HTuple],
    predicates: Sequence[Predicate],
    columnar_on: bool | None = None,
    block_cache: dict | None = None,
) -> list[HTuple]:
    """The governed selection loop over pre-validated predicates.

    The body of :func:`select`.

    With the columnar fast path on (``columnar_on``; ``None`` consults
    the thread-local mode) a vectorized interval filter masks out
    provably doomed tuples first and only candidates run the exact
    per-tuple work; results are bit-identical (see
    :mod:`repro.exec.columnar`).
    """
    if columnar_on is None:
        columnar_on = columnar.columnar_active()
    mask = _columnar_mask(tuples, predicates, block_cache) if columnar_on else None
    guard = ProducerGuard()
    result: list[HTuple] = []
    for i, t in enumerate(tuples):
        if not guard.start_row():
            break
        if mask is not None and not mask[i]:
            continue
        try:
            survivor = _select_survivor(t, predicates)
        except ResourceExhausted as exc:
            if not guard.absorb(exc):
                raise
            break
        if survivor is None:
            continue
        if not guard.produced():
            break
        result.append(survivor)
    return result


def _columnar_mask(
    tuples: Sequence[HTuple],
    predicates: Sequence[Predicate],
    block_cache: dict | None = None,
):
    """The candidate mask for one batch, or ``None`` when the probe
    bypasses (too small, or no vectorizable predicate bounds).
    Counter contract: one ``columnar.batches`` per vectorized batch,
    ``filtered``/``fallback`` split the batch, one ``bypassed`` per
    probed-and-declined batch."""
    if len(tuples) < columnar.MIN_BATCH or not predicates:
        return None
    plan = columnar.selection_plan(predicates, tuples[0].schema)
    if plan is None:
        record(COLUMNAR_BYPASSED)
        return None
    block = columnar.block_for(tuples, plan.variables, cache=block_cache)
    mask = columnar.candidate_mask(block, plan)
    candidates = int(mask.sum())
    record(COLUMNAR_BATCHES)
    record(COLUMNAR_FILTERED, len(tuples) - candidates)
    record(COLUMNAR_FALLBACK, candidates)
    return mask


def select(relation: ConstraintRelation, predicates: Sequence[Predicate]) -> ConstraintRelation:
    """ς — selection by a conjunction of predicates.

    Linear atoms over constraint attributes are conjoined onto each tuple's
    formula; atoms over rational relational attributes have the tuple's
    values substituted first (a NULL value fails the tuple — narrow
    semantics).  Tuples whose augmented formula is unsatisfiable vanish.
    """
    validate_predicates(relation.schema, list(predicates))
    result = filter_tuples(
        relation.tuples, predicates, block_cache=relation.columnar_cache()
    )
    return ConstraintRelation(relation.schema, result)


def project(relation: ConstraintRelation, attributes: Sequence[str]) -> ConstraintRelation:
    """π — projection onto ``attributes`` (⊆ α(R)).

    Constraint attributes outside the projection list are eliminated from
    each tuple's formula by Fourier–Motzkin, yielding exactly the geometric
    projection of the tuple's point set.
    """
    out_schema = relation.schema.project(attributes)
    guard = ProducerGuard()
    result: list[HTuple] = []
    for t in relation:
        if not guard.start_row():
            break
        try:
            projected = t.project(attributes)
        except ResourceExhausted as exc:
            if not guard.absorb(exc):
                raise
            break
        if not guard.produced():
            break
        result.append(projected)
    return ConstraintRelation(out_schema, result)


def natural_join(left: ConstraintRelation, right: ConstraintRelation) -> ConstraintRelation:
    """⋈ — natural join; α(E) = α(R₁) ∪ α(R₂).

    Cross-product (no shared attributes) and intersection (identical
    schemas) are special cases, per the paper's remark.  Shared attributes
    join as follows:

    * relational/relational: values must be equal and non-NULL;
    * constraint/constraint: the formulas are conjoined (same variable);
    * relational/constraint: the concrete value is substituted into the
      constraint side's formula and the output attribute is relational.
    """
    out_schema = left.schema.join(right.schema)
    shared = left.schema.shared_names(right.schema)
    guard = ProducerGuard()
    result: list[HTuple] = []
    stopped = False
    for lt_ in left:
        if stopped:
            break
        for rt in right:
            if not guard.start_row():
                stopped = True
                break
            try:
                combined = _join_pair(lt_, rt, out_schema, shared)
            except ResourceExhausted as exc:
                if not guard.absorb(exc):
                    raise
                stopped = True
                break
            if combined is not None:
                if not guard.produced():
                    stopped = True
                    break
                result.append(combined)
    return ConstraintRelation(out_schema, result)


def _join_pair(
    lt_: HTuple, rt: HTuple, out_schema: Schema, shared: Iterable[str]
) -> HTuple | None:
    left_schema, right_schema = lt_.schema, rt.schema
    left_formula, right_formula = lt_.formula, rt.formula
    values: dict[str, Value] = {}
    for name in shared:
        l_attr, r_attr = left_schema[name], right_schema[name]
        if l_attr.is_relational and r_attr.is_relational:
            lv, rv = lt_.value(name), rt.value(name)
            if isinstance(lv, Null) or isinstance(rv, Null) or lv != rv:
                return None  # NULL joins nothing (narrow semantics)
            values[name] = lv
        elif l_attr.is_constraint and r_attr.is_constraint:
            pass  # same variable name: conjunction below unifies them
        else:
            rel_side, con_formula = (
                (lt_, right_formula) if l_attr.is_relational else (rt, left_formula)
            )
            value = rel_side.value(name)
            if isinstance(value, Null):
                return None
            substituted = con_formula.substitute(name, LinearExpression.constant_expr(value))
            if l_attr.is_relational:
                right_formula = substituted
            else:
                left_formula = substituted
            values[name] = value
    for name in out_schema.relational_names:
        if name in values:
            continue
        if name in left_schema and left_schema[name].is_relational:
            values[name] = lt_.value(name)
        elif name in right_schema and right_schema[name].is_relational:
            values[name] = rt.value(name)
    # Interval pre-filter: each side's per-variable bound summary is cached
    # on its conjunction, so rejecting a non-overlapping pair costs O(d)
    # comparisons — no combined conjunction is built and no full
    # satisfiability solve runs (the dominant cost of join-heavy plans).
    if solver.join_prunable(
        left_formula.interval_summary(), right_formula.interval_summary()
    ):
        return None
    combined = left_formula.conjoin(right_formula)
    if not combined.is_satisfiable():
        return None
    return HTuple(out_schema, values, combined)


def union(left: ConstraintRelation, right: ConstraintRelation) -> ConstraintRelation:
    """∪ — requires union-compatible schemas; α(E) = α(R₁)."""
    left.schema.union_compatible(right.schema)
    guard = ProducerGuard()
    result: list[HTuple] = []
    stopped = False
    for t in left:
        if not guard.start_row() or not guard.produced():
            stopped = True
            break
        result.append(t)
    if not stopped:
        for t in right:
            if not guard.start_row() or not guard.produced():
                break
            result.append(t.cast(left.schema))
    return ConstraintRelation(left.schema, result)


def rename(relation: ConstraintRelation, old: str, new: str) -> ConstraintRelation:
    """ϱ — rename attribute ``old`` to ``new``."""
    out_schema = relation.schema.rename(old, new)
    return ConstraintRelation(out_schema, (t.rename(old, new) for t in relation))


def difference(left: ConstraintRelation, right: ConstraintRelation) -> ConstraintRelation:
    """− — set difference; requires union-compatible schemas.

    For each left tuple, the subtrahend is the DNF of the formulas of the
    right tuples with the *same relational values* (NULL markers compare
    equal for set operations, as in SQL's distinct-row rule); the result is
    ``φ(t) ∧ ¬φ(subtrahend)`` distributed back into constraint tuples.
    """
    left.schema.union_compatible(right.schema)
    by_group: dict[tuple[tuple[str, Value], ...], list[Conjunction]] = {}
    for rt in right:
        key = tuple(sorted(rt.values.items(), key=lambda kv: kv[0]))
        by_group.setdefault(key, []).append(rt.formula)
    guard = ProducerGuard()
    result: list[HTuple] = []
    stopped = False
    for t in left:
        if stopped or not guard.start_row():
            break
        try:
            key = tuple(sorted(t.values.items(), key=lambda kv: kv[0]))
            formulas = by_group.get(key)
            if not formulas:
                if not guard.produced():
                    break
                result.append(t)
                continue
            remainder = DNFFormula([t.formula]).difference(DNFFormula(formulas))
        except ResourceExhausted as exc:
            if not guard.absorb(exc):
                raise
            break
        for disjunct in remainder:
            if not guard.produced():
                stopped = True
                break
            result.append(t.with_formula(disjunct))
    return ConstraintRelation(left.schema, result)


def intersection(left: ConstraintRelation, right: ConstraintRelation) -> ConstraintRelation:
    """∩ — a special case of natural join over identical schemas."""
    left.schema.union_compatible(right.schema)
    return natural_join(left, right.map_tuples(lambda t: t.cast(left.schema)))


def cross_product(left: ConstraintRelation, right: ConstraintRelation) -> ConstraintRelation:
    """× — a special case of natural join over disjoint schemas."""
    shared = left.schema.shared_names(right.schema)
    if shared:
        raise AlgebraError(
            f"cross product requires disjoint schemas; shared attributes: {list(shared)} "
            "(rename them first, or use natural_join)"
        )
    return natural_join(left, right)
