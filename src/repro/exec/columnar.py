"""The columnar/vectorized execution fast path.

Paper §6 argues the finite representation underlying the framework need
not be constraints — only the *interface* must be constraint-neutral.
This module pushes that observation into the executor: instead of
deciding satisfiability tuple-at-a-time with exact rationals, a batch of
tuples is exported once into contiguous float64 arrays (the per-variable
interval summaries every :class:`~repro.constraints.Conjunction` already
caches) and a whole batch of selection pre-checks runs as a handful of
numpy comparisons.  The float filter produces a *candidate mask*; only
the survivors are re-verified tuple-at-a-time through the exact rational
solver, so results are bit-identical to row mode.

Soundness.  Every float bound is **widened**: lower bounds round toward
−∞ and upper bounds toward +∞ (:func:`repro.rational.float_down` /
:func:`float_up`), and strict bounds are treated as closed.  Each float
interval therefore *contains* its exact rational interval.  The mask
kernel then only uses ``max``/``min``/comparison — operations that are
exact on floats — so ``max(lows) > min(highs)`` on the widened intervals
proves the exact intersection empty.  The filter can only
over-approximate (keep a doomed tuple for the exact fallback to kill),
never under-approximate (drop a survivor).  See ``docs/COLUMNAR.md``.

Activation is a thread-local stack (mirroring the budget/registry
stacks) so the mode nests, and concurrent server tenants each keep
their own setting.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as _np

from .._concurrency import ThreadLocalStack

if TYPE_CHECKING:
    from ..model.schema import Schema
    from ..model.tuples import HTuple

#: Below this many tuples the per-batch numpy overhead (array allocation,
#: kernel launch) is not worth saving a few Python-level interval checks;
#: the probe bypasses to the row loop.
MIN_BATCH = 16

#: Execution modes a session accepts.  ``auto`` is the default row path;
#: ``columnar`` turns this fast path on; ``row`` forces it off explicitly
#: (the A/B baseline arm).
EXEC_MODES = ("auto", "row", "columnar")

#: Environment variable consulted by ``QuerySession(exec_mode=None)`` —
#: lets CI flip a whole test run to columnar without touching call sites.
EXEC_MODE_ENV_VAR = "REPRO_EXEC_MODE"


def default_exec_mode() -> str:
    """The session default execution mode: ``$REPRO_EXEC_MODE`` or
    ``"auto"``."""
    raw = os.environ.get(EXEC_MODE_ENV_VAR, "").strip().lower()
    if not raw:
        return "auto"
    if raw not in EXEC_MODES:
        raise ValueError(
            f"{EXEC_MODE_ENV_VAR} must be one of {EXEC_MODES}, got {raw!r}"
        )
    return raw


def uses_columnar(mode: str) -> bool:
    """Whether a session-level ``exec_mode`` turns the fast path on."""
    if mode not in EXEC_MODES:
        raise ValueError(f"exec_mode must be one of {EXEC_MODES}, got {mode!r}")
    return mode == "columnar"


# -- activation (a thread-local stack, like budgets and registries) ----------


#: Per-thread activation stack of booleans; the *top* entry decides, so
#: ``columnar_mode(False)`` masks an enclosing activation exactly like
#: the old depth-reset did.  Shares :class:`ThreadLocalStack` with the
#: budget/registry stacks.
_STACK = ThreadLocalStack()


@contextmanager
def columnar_mode(enabled: bool = True) -> Iterator[None]:
    """Activate (or explicitly deactivate) the columnar fast path for the
    dynamic extent of the block, on this thread."""
    with _STACK.pushed(enabled):
        yield


def columnar_active() -> bool:
    """Whether the columnar fast path is on for the current thread."""
    return bool(_STACK.top())


# -- the columnar batch format -----------------------------------------------


class SummaryBlock:
    """One batch's interval summaries as contiguous float64 columns.

    ``lower``/``upper`` are ``(n, d)`` arrays over ``variables`` (±∞ for
    unbounded sides, widened rounding — see the module docstring);
    ``inconsistent`` marks tuples whose own summary already proves them
    empty.  Blocks are immutable once built and cached on their owner
    relation keyed by the variable tuple.
    """

    __slots__ = ("variables", "lower", "upper", "inconsistent")

    def __init__(self, variables, lower, upper, inconsistent) -> None:
        self.variables = variables
        self.lower = lower
        self.upper = upper
        self.inconsistent = inconsistent

    def __len__(self) -> int:
        return self.lower.shape[0]

    @classmethod
    def from_tuples(
        cls, tuples: Sequence["HTuple"], variables: tuple[str, ...]
    ) -> "SummaryBlock":
        n, d = len(tuples), len(variables)
        lower = _np.full((n, d), -_np.inf)
        upper = _np.full((n, d), _np.inf)
        inconsistent = _np.zeros(n, dtype=bool)
        for i, t in enumerate(tuples):
            bounds, bad = t.formula.float_bounds()
            if bad:
                inconsistent[i] = True
                continue
            for j, variable in enumerate(variables):
                pair = bounds.get(variable)
                if pair is not None:
                    lower[i, j] = pair[0]
                    upper[i, j] = pair[1]
        return cls(variables, lower, upper, inconsistent)


def block_for(
    tuples: Sequence["HTuple"],
    variables: tuple[str, ...],
    cache: dict | None = None,
) -> SummaryBlock:
    """The :class:`SummaryBlock` for ``tuples`` over ``variables``,
    memoised in ``cache`` (an owner-provided dict keyed by the variable
    tuple) so repeated scans of an immutable relation pay the export
    once."""
    if cache is None:
        return SummaryBlock.from_tuples(tuples, variables)
    block = cache.get(variables)
    if block is None or len(block) != len(tuples):
        block = SummaryBlock.from_tuples(tuples, variables)
        cache[variables] = block
    return block


# -- the selection filter kernel ---------------------------------------------


class SelectionPlan:
    """The static (tuple-independent) side of a predicate list, exported
    to widened float bound rows ready to broadcast against a block.

    ``empty`` means the static atoms are inconsistent on their own: every
    tuple's augmented formula is unsatisfiable and the mask is all-False.
    """

    __slots__ = ("variables", "lower", "upper", "empty")

    def __init__(self, variables, lower, upper, empty: bool) -> None:
        self.variables = variables
        self.lower = lower
        self.upper = upper
        self.empty = empty


def selection_plan(predicates: Sequence[object], schema: "Schema") -> SelectionPlan | None:
    """Compile a predicate list into a :class:`SelectionPlan`, or ``None``
    when the vectorized filter cannot reject anything (bypass).

    Only linear atoms that mention no relational attribute are harvested:
    those are conjoined verbatim onto every tuple, so bounds implied by
    them alone are sound grounds for rejection.  Atoms over relational
    attributes (values substituted per tuple) and string predicates are
    left entirely to the exact fallback — ignoring them only makes the
    filter keep more candidates, never drop a survivor.
    """
    from ..constraints import LinearConstraint, solver

    relational = set(schema.relational_names)
    static_atoms = [
        p
        for p in predicates
        if isinstance(p, LinearConstraint) and not (p.expression.variables & relational)
    ]
    if not static_atoms:
        return None
    summary = solver.summarise(static_atoms)
    if summary.inconsistent:
        return SelectionPlan((), None, None, empty=True)
    if not summary.bounds:
        return None  # only multi-variable atoms: no per-variable bounds
    variables = tuple(sorted(summary.bounds))
    pairs = [solver.float_interval(summary.bounds[v]) for v in variables]
    lower = _np.array([p[0] for p in pairs])
    upper = _np.array([p[1] for p in pairs])
    return SelectionPlan(variables, lower, upper, empty=False)


def candidate_mask(block: SummaryBlock, plan: SelectionPlan):
    """The boolean candidate mask: ``True`` rows *may* survive selection
    and go to the exact fallback; ``False`` rows are provably
    unsatisfiable once the static atoms are conjoined.  Pure
    ``max``/``min``/compare — exact float operations over widened bounds,
    hence sound (see the module docstring)."""
    mask = ~block.inconsistent
    if plan.empty:
        return _np.zeros(len(block), dtype=bool)
    lower = _np.maximum(block.lower, plan.lower)
    upper = _np.minimum(block.upper, plan.upper)
    mask &= (lower <= upper).all(axis=1)
    return mask


# -- the spatial bbox kernel -------------------------------------------------


def box_mindist_sq_batch(box, lowers, uppers):
    """Squared Euclidean box min-distances from one float box
    ``(min_x, min_y, max_x, max_y)`` to ``n`` boxes given as ``(n, 2)``
    lower/upper corner arrays.  Elementwise-identical to
    :func:`repro.spatial.features.box_mindist_sq` (same IEEE operations in
    the same order), which is what makes the vectorized prune decisions
    bit-identical to the scalar loop's."""
    dx = _np.maximum(_np.maximum(lowers[:, 0] - box[2], box[0] - uppers[:, 0]), 0.0)
    dy = _np.maximum(_np.maximum(lowers[:, 1] - box[3], box[1] - uppers[:, 1]), 0.0)
    return dx * dx + dy * dy
