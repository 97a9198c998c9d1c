"""Constraint relations: finite sets of heterogeneous tuples.

A :class:`ConstraintRelation` is Definition 2 of the paper lifted to the
heterogeneous data model: a schema plus a finite set of
:class:`~repro.model.tuples.HTuple`.  Its semantics φ(R) is the disjunction
of the tuple formulas, grouped by relational values.

Relations are immutable; the algebra (:mod:`repro.algebra`) produces new
relations rather than mutating inputs.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping

from ..constraints import Conjunction, DNFFormula
from ..errors import SchemaError
from .schema import Schema
from .tuples import HTuple, point_tuple
from .types import Value, ValueLike


class ConstraintRelation:
    """An immutable finite set of constraint tuples over one schema.

    Tuples whose formula is unsatisfiable denote no points and are dropped
    at construction; duplicates are removed (set semantics, Definition 2).
    """

    __slots__ = ("_schema", "_tuples", "_name", "_truncated", "_columnar")

    def __init__(
        self,
        schema: Schema,
        tuples: Iterable[HTuple] = (),
        name: str | None = None,
    ) -> None:
        self._truncated = False
        materialised: list[HTuple] = []
        seen: set[HTuple] = set()
        for t in tuples:
            if not isinstance(t, HTuple):
                raise SchemaError(f"expected an HTuple, got {t!r}")
            if t.schema != schema:
                raise SchemaError(
                    f"tuple schema {t.schema!r} does not match relation schema {schema!r}"
                )
            if t.is_empty():
                continue
            if t not in seen:
                seen.add(t)
                materialised.append(t)
        self._schema = schema
        self._tuples = tuple(materialised)
        self._name = name
        self._columnar: dict | None = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_points(
        cls,
        schema: Schema,
        points: Iterable[Mapping[str, ValueLike]],
        name: str | None = None,
    ) -> "ConstraintRelation":
        """Build a relation from traditional data points (each a mapping of
        attribute name to value); constraint attributes become equality
        constraints."""
        return cls(schema, (point_tuple(schema, p) for p in points), name)

    @classmethod
    def from_constraints(
        cls,
        schema: Schema,
        rows: Iterable[tuple[Mapping[str, ValueLike], Conjunction | Iterable]],
        name: str | None = None,
    ) -> "ConstraintRelation":
        """Build a relation from ``(relational-values, formula)`` pairs."""
        return cls(schema, (HTuple(schema, values, formula) for values, formula in rows), name)

    def with_name(self, name: str | None) -> "ConstraintRelation":
        """The same relation under a different name (satisfiability results
        are cached per formula, so revalidation is cheap)."""
        return ConstraintRelation(self._schema, self._tuples, name)

    # -- inspection --------------------------------------------------------

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def name(self) -> str | None:
        return self._name

    @property
    def tuples(self) -> tuple[HTuple, ...]:
        return self._tuples

    @property
    def truncated(self) -> bool:
        """Whether this result was cut short by a resource budget running in
        ``on_exhausted="partial"`` mode (the tuples present are a sound
        prefix of the full answer, not the complete answer)."""
        return self._truncated

    def columnar_cache(self) -> dict:
        """The per-relation memo for columnar summary blocks (see
        :func:`repro.exec.columnar.block_for`).  Relations are immutable,
        so a block built over :attr:`tuples` stays valid for the
        relation's lifetime; repeated selections over one base relation
        pay the float export once."""
        cache = self._columnar
        if cache is None:
            cache = self._columnar = {}
        return cache

    def extended(self, tuples: Iterable[HTuple]) -> "ConstraintRelation":
        """A new relation with ``tuples`` appended (set semantics: empty
        and duplicate tuples are dropped exactly as at construction).

        This is the write path's append primitive: the receiver is left
        untouched — readers holding it (or a
        :class:`~repro.storage.snapshot.DatabaseSnapshot` pinning it) keep
        seeing the old version with its columnar caches intact, while the
        result starts with a *fresh, empty* columnar cache so no stale
        summary block can ever describe the appended tuples."""
        return ConstraintRelation(self._schema, (*self._tuples, *tuples), self._name)

    def with_truncated(self, truncated: bool = True) -> "ConstraintRelation":
        """The same relation with the ``truncated`` marker set."""
        relation = ConstraintRelation(self._schema, self._tuples, self._name)
        relation._truncated = truncated
        return relation

    def __len__(self) -> int:
        return len(self._tuples)

    def __iter__(self) -> Iterator[HTuple]:
        return iter(self._tuples)

    def __bool__(self) -> bool:
        return bool(self._tuples)

    def contains_point(self, point: Mapping[str, ValueLike]) -> bool:
        """Point membership R(t): whether any tuple's semantics contains the
        point."""
        return any(t.contains_point(point) for t in self._tuples)

    def groups(self) -> dict[tuple[tuple[str, Value], ...], DNFFormula]:
        """φ(R) factored by relational values.

        Maps each distinct relational-value vector (as a sorted item tuple;
        NULLs are compared as markers, mirroring SQL's distinct-row rule) to
        the DNF of the formulas of its tuples.
        """
        grouped: dict[tuple[tuple[str, Value], ...], list[Conjunction]] = {}
        for t in self._tuples:
            key = tuple(sorted(t.values.items(), key=lambda kv: kv[0]))
            grouped.setdefault(key, []).append(t.formula)
        return {key: DNFFormula(formulas) for key, formulas in grouped.items()}

    def equivalent(self, other: "ConstraintRelation") -> bool:
        """Semantic equivalence (Definition 2): same relational-value groups
        with logically equivalent constraint formulas."""
        self._schema.union_compatible(other._schema)
        mine = self.groups()
        theirs = other.groups()
        if set(mine) != set(theirs):
            return False
        return all(mine[key].equivalent(theirs[key]) for key in mine)

    def simplify(self) -> "ConstraintRelation":
        """Simplify each tuple's formula and drop tuples absorbed within
        their relational-value group."""
        result: list[HTuple] = []
        for t in self._tuples:
            result.append(t.with_formula(t.formula.simplify()))
        relation = ConstraintRelation(self._schema, result, self._name)
        # Absorption: within a group, drop disjuncts entailed by another.
        kept: list[HTuple] = []
        by_group: dict[tuple, list[HTuple]] = {}
        for t in relation._tuples:
            key = tuple(sorted(t.values.items(), key=lambda kv: kv[0]))
            by_group.setdefault(key, []).append(t)
        for group in by_group.values():
            for i, t in enumerate(group):
                absorbed = False
                for j, other in enumerate(group):
                    if i == j:
                        continue
                    if t.formula.entails(other.formula) and not (
                        other.formula.entails(t.formula) and j > i
                    ):
                        absorbed = True
                        break
                if not absorbed:
                    kept.append(t)
        return ConstraintRelation(self._schema, kept, self._name)

    def map_tuples(self, transform: Callable[[HTuple], HTuple | None]) -> "ConstraintRelation":
        """A new relation from ``transform`` applied to each tuple
        (``None`` results are dropped)."""
        produced = (transform(t) for t in self._tuples)
        schema: Schema | None = None
        materialised = []
        for t in produced:
            if t is None:
                continue
            if schema is None:
                schema = t.schema
            materialised.append(t)
        return ConstraintRelation(schema if schema is not None else self._schema, materialised, self._name)

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        """Syntactic equality (same tuples); use :meth:`equivalent` for the
        semantic notion."""
        if not isinstance(other, ConstraintRelation):
            return NotImplemented
        return self._schema == other._schema and set(self._tuples) == set(other._tuples)

    def __hash__(self) -> int:
        return hash((self._schema, frozenset(self._tuples)))

    def __repr__(self) -> str:
        label = self._name or "relation"
        return f"<ConstraintRelation {label}: {len(self._tuples)} tuples over ({', '.join(self._schema.names)})>"

    def pretty(self, limit: int = 20) -> str:
        """A human-readable rendering of up to ``limit`` tuples."""
        header = self._name or "relation"
        lines = [f"{header} [{'; '.join(str(a) for a in self._schema)}]"]
        for t in self._tuples[:limit]:
            lines.append(f"  {t}")
        if len(self._tuples) > limit:
            lines.append(f"  ... ({len(self._tuples) - limit} more)")
        if not self._tuples:
            lines.append("  (empty)")
        return "\n".join(lines)
