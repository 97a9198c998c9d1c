"""The layered satisfiability front-end: decide cheaply, solve rarely.

Every satisfiability request in the engine (tuple construction, ``select``
survivors, every pair considered by ``natural_join``, DNF complement
branches, entailment checks) routes through :func:`is_satisfiable`, which
answers from the cheapest sufficient layer:

1. **Interval propagation** — a per-variable bound summary harvested from
   the single-variable atoms in one linear pass (:func:`summarise`).  An
   empty implied interval proves *unsatisfiability* in O(d) without
   touching Fourier–Motzkin; a *pure box* system (every atom
   single-variable) with consistent intervals is *satisfiable* outright,
   because its variables are independent.  The same summaries let joins
   reject non-overlapping tuple pairs (:func:`join_prunable`) before the
   combined conjunction is even built — the R\\*-tree's MBR-pruning idea
   pushed down into the solver layer.

2. **Memo cache** — a bounded LRU keyed on the canonical (deduplicated,
   sorted, interned) atom tuple.  Atom canonicalization happens at
   construction (:mod:`repro.constraints.atoms` scales to coprime
   integers) and interning (:func:`intern_atom`) makes structurally equal
   formulas pointer-equal, so repeated checks of the same polyhedron —
   ubiquitous in join loops and redundancy elimination — cost one hash
   and an O(n) pointer comparison.

3. **Adaptive dispatch** — cache misses run a full decision procedure:
   Fourier–Motzkin for the small, sparse systems it handles well, the
   exact rational simplex for dense/many-variable systems where FM's
   worst-case exponential blow-up bites.

Observability: every layer reports through the active
:class:`~repro.obs.MetricsRegistry` (``solver.requests``,
``solver.interval.*``, ``solver.cache.hits/misses``,
``solver.dispatch.*``), so ``EXPLAIN ANALYZE`` shows per-plan-node solver
savings.  ``solver.satisfiability_checks`` counts only *full* solves;
the gap to ``solver.requests`` is the work the fast paths saved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from operator import attrgetter
from typing import Callable, Iterable, Mapping

from ..governor.budget import checkpoint as budget_checkpoint
from ..rational import float_down, float_up
from ..obs import (
    SATISFIABILITY_CHECKS,
    SOLVER_BOX_DECIDED,
    SOLVER_CACHE_HITS,
    SOLVER_CACHE_MISSES,
    SOLVER_FM_ROUTED,
    SOLVER_INTERVAL_PRUNES,
    SOLVER_JOIN_PRUNES,
    SOLVER_REQUESTS,
    SOLVER_SIMPLEX_ROUTED,
    record,
)
from . import elimination, simplex
from .atoms import Comparator, LinearConstraint
from .cache import InternTable, LRUCache

#: A per-variable interval: ``(lower, lower_strict, upper, upper_strict)``
#: with ``None`` for an unbounded side.
Interval = tuple[Fraction | None, bool, Fraction | None, bool]

_UNBOUNDED: Interval = (None, False, None, False)
_SORT_KEY = attrgetter("sort_key")


# -- configuration -----------------------------------------------------------


@dataclass(frozen=True)
class SolverConfig:
    """Tuning knobs for the layered front-end."""

    cache_size: int = 8192
    #: Route to simplex when the system mentions at least this many variables…
    simplex_variable_threshold: int = 5
    #: …or contains at least this many atoms.
    simplex_atom_threshold: int = 16


_config = SolverConfig()
_CACHE: LRUCache[tuple[LinearConstraint, ...], bool] = LRUCache(_config.cache_size)
_INTERN: InternTable[LinearConstraint] = InternTable()


def get_config() -> SolverConfig:
    return _config


def configure(**changes) -> SolverConfig:
    """Update solver configuration; resizing the cache clears it."""
    global _config, _CACHE
    new = replace(_config, **changes)
    if new.cache_size != _CACHE.capacity:
        _CACHE = LRUCache(new.cache_size)
    _config = new
    return new


def clear_caches() -> None:
    """Drop the memo cache and the intern table (always safe)."""
    _CACHE.clear()
    _INTERN.clear()


def cache_info() -> dict[str, int]:
    """Lifetime accounting for the memo cache plus the intern table size."""
    info = _CACHE.info()
    info["interned_atoms"] = len(_INTERN)
    return info


def intern_atom(atom: LinearConstraint) -> LinearConstraint:
    """The canonical shared instance for this (already canonicalised) atom."""
    return _INTERN.intern(atom)


# -- layer 1: interval summaries ---------------------------------------------


@dataclass(frozen=True)
class IntervalSummary:
    """Per-variable bounds harvested from the single-variable atoms.

    ``bounds`` maps each variable mentioned by a single-variable atom to
    its tightest implied interval; multi-variable atoms contribute nothing
    (their presence clears ``pure_box``).  Every interval here is a sound
    consequence of the conjunction, so an empty interval proves
    unsatisfiability regardless of the atoms not summarised.
    """

    bounds: Mapping[str, Interval]
    #: True when *every* atom is single-variable: the system is an
    #: axis-aligned box and the summary decides satisfiability completely.
    pure_box: bool
    #: True when some variable's implied interval is empty (or a ground
    #: atom is false) — the conjunction is unsatisfiable.
    inconsistent: bool


def interval_is_empty(interval: Interval) -> bool:
    lower, lower_strict, upper, upper_strict = interval
    if lower is None or upper is None:
        return False
    return lower > upper or (lower == upper and (lower_strict or upper_strict))


def merge_intervals(a: Interval, b: Interval) -> Interval:
    """The intersection of two intervals over the same variable."""
    lower, lower_strict = _tighter(a[0], a[1], b[0], b[1], prefer_max=True)
    upper, upper_strict = _tighter(a[2], a[3], b[2], b[3], prefer_max=False)
    return (lower, lower_strict, upper, upper_strict)


def _tighter(
    x: Fraction | None, x_strict: bool, y: Fraction | None, y_strict: bool, prefer_max: bool
) -> tuple[Fraction | None, bool]:
    if x is None:
        return y, y_strict
    if y is None:
        return x, x_strict
    if x == y:
        return x, x_strict or y_strict
    if (x > y) == prefer_max:
        return x, x_strict
    return y, y_strict


def summarise(atoms: Iterable[LinearConstraint]) -> IntervalSummary:
    """One linear pass over the atoms → :class:`IntervalSummary`."""
    bounds: dict[str, Interval] = {}
    pure_box = True
    inconsistent = False
    for atom in atoms:
        expression = atom.expression
        variables = expression.variables
        if not variables:  # ground atom
            if not atom.truth_value():
                inconsistent = True
            continue
        if len(variables) > 1:
            pure_box = False
            continue
        (variable,) = variables
        coeff = expression.coefficient(variable)
        bound = -expression.constant / coeff
        strict = atom.comparator is Comparator.LT
        if atom.comparator is Comparator.EQ:
            contribution: Interval = (bound, False, bound, False)
        elif coeff > 0:  # coeff*v + k ⊙ 0  →  v ⊙ bound (upper)
            contribution = (None, False, bound, strict)
        else:  # sign flips: lower bound
            contribution = (bound, strict, None, False)
        current = bounds.get(variable, _UNBOUNDED)
        merged = merge_intervals(current, contribution)
        bounds[variable] = merged
        if interval_is_empty(merged):
            inconsistent = True
    return IntervalSummary(bounds=bounds, pure_box=pure_box, inconsistent=inconsistent)


def float_interval(interval: Interval) -> tuple[float, float]:
    """The widened float image of an exact interval: the lower bound is
    rounded toward −∞ and the upper toward +∞ (unbounded sides become
    ±∞), and strictness is dropped.  The float interval therefore always
    *contains* the exact one, which is the soundness invariant the
    columnar filter kernels rely on: an empty intersection of widened
    float intervals proves the exact intersection empty, never the
    reverse."""
    lower, _, upper, _ = interval
    return (
        -math.inf if lower is None else float_down(lower),
        math.inf if upper is None else float_up(upper),
    )


def float_bounds(summary: IntervalSummary) -> dict[str, tuple[float, float]]:
    """Per-variable widened float bounds of a summary — the array-export
    form :class:`repro.exec.columnar.SummaryBlock` packs into contiguous
    float64 columns."""
    return {
        variable: float_interval(interval)
        for variable, interval in summary.bounds.items()
    }


def summaries_disjoint(left: IntervalSummary, right: IntervalSummary) -> bool:
    """Whether the conjunction of the two summarised systems is *provably*
    unsatisfiable from intervals alone (sound, never complete)."""
    if left.inconsistent or right.inconsistent:
        return True
    small, large = (
        (left.bounds, right.bounds)
        if len(left.bounds) <= len(right.bounds)
        else (right.bounds, left.bounds)
    )
    for variable, interval in small.items():
        other = large.get(variable)
        if other is not None and interval_is_empty(merge_intervals(interval, other)):
            return True
    return False


def join_prunable(left: IntervalSummary, right: IntervalSummary) -> bool:
    """Join-pair pre-filter: True when the combined formula is provably
    unsatisfiable from the two sides' interval summaries, in which case
    the pair can be rejected without building the combined conjunction.
    Records the prune so ``EXPLAIN ANALYZE`` shows join-level savings."""
    if summaries_disjoint(left, right):
        record(SOLVER_JOIN_PRUNES)
        record(SOLVER_INTERVAL_PRUNES)
        return True
    return False


# -- layers 2–3: memo cache and adaptive dispatch ----------------------------


def cache_key(atoms: Iterable[LinearConstraint]) -> tuple[LinearConstraint, ...]:
    """Canonical cache key: interned atoms, deduplicated, canonically
    sorted.  Two structurally equal systems — whatever order their atoms
    arrived in — produce pointer-identical key tuples."""
    return tuple(sorted(dict.fromkeys(map(intern_atom, atoms)), key=_SORT_KEY))


def _full_check(atoms: tuple[LinearConstraint, ...]) -> bool:
    """Adaptive dispatch to a full decision procedure."""
    if len(atoms) >= _config.simplex_atom_threshold:
        dense = True
    else:
        variables: set[str] = set()
        for atom in atoms:
            variables |= atom.expression.variables
        dense = len(variables) >= _config.simplex_variable_threshold
    if dense:
        record(SOLVER_SIMPLEX_ROUTED)
        record(SATISFIABILITY_CHECKS)  # elimination records its own; match it
        return simplex.is_satisfiable(atoms)
    record(SOLVER_FM_ROUTED)
    return elimination.is_satisfiable(atoms)


def is_satisfiable(
    atoms: Iterable[LinearConstraint],
    summary: IntervalSummary | Callable[[], IntervalSummary] | None = None,
) -> bool:
    """Layered satisfiability of a conjunction of atoms.

    ``summary`` may be a precomputed :class:`IntervalSummary` or a
    zero-argument callable producing one (so callers with a cached
    summary — :class:`~repro.constraints.Conjunction` — avoid the linear
    pass).
    """
    record(SOLVER_REQUESTS)
    # The finest-grained cooperative cancellation point: every join pair,
    # select survivor and complement branch asks satisfiability, so a
    # deadline fires here within one solve of the exhaustion instant.
    budget_checkpoint()
    atoms = tuple(atoms)
    if not atoms:
        return True
    if summary is None:
        summary = summarise(atoms)
    elif callable(summary):
        summary = summary()
    if summary.inconsistent:
        record(SOLVER_INTERVAL_PRUNES)
        return False
    if summary.pure_box:
        record(SOLVER_BOX_DECIDED)
        return True
    key = cache_key(atoms)
    cached = _CACHE.get(key)
    if cached is not None:
        record(SOLVER_CACHE_HITS)
        return cached
    record(SOLVER_CACHE_MISSES)
    result = _full_check(key)
    _CACHE.put(key, result)
    return result
