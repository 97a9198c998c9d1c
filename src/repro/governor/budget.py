"""Per-query resource budgets with cooperative cancellation.

A :class:`Budget` bounds one statement's consumption of five resources:

* ``deadline_seconds`` — wall-clock time from activation;
* ``solver_steps`` — Fourier–Motzkin steps weighted by the atoms each
  step produces, plus simplex pivots (the elimination-atom budget that
  catches FM's worst-case exponential blow-up);
* ``dnf_clauses`` — conjunctions built while distributing or
  complementing DNF formulas (the difference-operator blow-up);
* ``output_tuples`` — tuples materialized by plan operators
  (intermediate results included: the cap bounds work, not just the
  final answer);
* ``io_accesses`` — simulated IO: R*-tree node visits.

Cancellation is *cooperative*: the engine's loops call the module-level
:func:`checkpoint` / :func:`charge` helpers at their boundaries.  When no
budget is active both are a single truthiness test on an empty list, so
ungoverned evaluation pays near-zero overhead (the <3% target of
``benchmarks/bench_governor.py``).

Budgets activate like the obs registry does — a thread-local stack —
so plain functions deep in the constraint layer need no threading of an
explicit token (thread-local rather than process-wide so concurrent
server tenants, each on its own thread, never charge each other's
budgets)::

    budget = Budget(deadline_seconds=0.5, solver_steps=10_000)
    with budget.activate():
        session.execute("R0 = join A and B")

Exhaustion raises the structured :class:`~repro.errors.ResourceExhausted`
taxonomy, each instance carrying a consumed-resources snapshot.  In
``on_exhausted="partial"`` mode, *producer* loops (select, join,
difference, buffer-join…) degrade gracefully instead: they stop,
mark the budget :attr:`~Budget.truncated`, and return the tuples
materialized so far.  Exhaustion that fires deep inside a single tuple's
solve is absorbed at the enclosing producer boundary.
"""

from __future__ import annotations

import time
from typing import Iterator

from contextlib import contextmanager

from .._concurrency import ThreadLocalStack
from ..errors import (
    DeadlineExceeded,
    DNFBudgetExceeded,
    IOBudgetExceeded,
    OutputLimitExceeded,
    ResourceExhausted,
    SolverBudgetExceeded,
)
from ..obs import (
    GOVERNOR_DNF_CLAUSES,
    GOVERNOR_OUTPUT_TUPLES,
    GOVERNOR_SOLVER_STEPS,
    GOVERNOR_TRUNCATIONS,
    current_registry,
    record,
)

#: Resource name → (exception class, obs counter mirrored at charge time;
#: ``None`` keeps the hot IO path free of per-charge recording).
_RESOURCES: dict[str, tuple[type[ResourceExhausted], str | None]] = {
    "solver_steps": (SolverBudgetExceeded, GOVERNOR_SOLVER_STEPS),
    "dnf_clauses": (DNFBudgetExceeded, GOVERNOR_DNF_CLAUSES),
    "output_tuples": (OutputLimitExceeded, GOVERNOR_OUTPUT_TUPLES),
    "io_accesses": (IOBudgetExceeded, None),
}

#: Obs counters copied into exhaustion snapshots (budget-relevant subset
#: of the registry; the full snapshot can be huge).
_SNAPSHOT_COUNTERS = (
    "solver.requests",
    "solver.satisfiability_checks",
    "solver.fourier_motzkin_steps",
    "solver.eliminate_calls",
    "index.node_accesses.logical",
    "index.node_accesses.physical",
    "buffer_pool.requests",
    "plan.tuples_produced",
)


class Budget:
    """A per-query resource budget (``None`` = that resource unlimited).

    Instances are reusable: :meth:`activate` opens a fresh accounting
    window (consumption zeroed, deadline re-armed, ``truncated`` cleared),
    so one budget attached to a :class:`~repro.query.QuerySession`
    governs each statement independently and the session stays usable
    after a statement is cancelled.
    """

    __slots__ = (
        "deadline_seconds",
        "on_exhausted",
        "truncated",
        "_limits",
        "_consumed",
        "_deadline_at",
        "_active",
    )

    def __init__(
        self,
        *,
        deadline_seconds: float | None = None,
        solver_steps: int | None = None,
        dnf_clauses: int | None = None,
        output_tuples: int | None = None,
        io_accesses: int | None = None,
        on_exhausted: str = "raise",
    ):
        if deadline_seconds is not None and not deadline_seconds > 0:
            raise ValueError(f"deadline_seconds must be positive, got {deadline_seconds!r}")
        limits = {
            "solver_steps": solver_steps,
            "dnf_clauses": dnf_clauses,
            "output_tuples": output_tuples,
            "io_accesses": io_accesses,
        }
        for name, limit in limits.items():
            if limit is None:
                continue
            if not isinstance(limit, int) or isinstance(limit, bool) or limit <= 0:
                raise ValueError(f"{name} must be a positive integer or None, got {limit!r}")
        if on_exhausted not in ("raise", "partial"):
            raise ValueError(f"on_exhausted must be 'raise' or 'partial', got {on_exhausted!r}")
        self.deadline_seconds = deadline_seconds
        self.on_exhausted = on_exhausted
        self.truncated = False
        self._limits = limits
        self._consumed = dict.fromkeys(limits, 0)
        self._deadline_at: float | None = None
        self._active = False

    # -- lifecycle -----------------------------------------------------------

    @contextmanager
    def activate(self) -> Iterator["Budget"]:
        """Open a fresh accounting window and make this the budget the
        engine's checkpoints charge.  Windows do not nest onto themselves
        (a budget governs one statement at a time)."""
        if self._active:
            raise ValueError("budget is already active (a Budget governs one query at a time)")
        self.reset()
        if self.deadline_seconds is not None:
            self._deadline_at = time.monotonic() + self.deadline_seconds
        self._active = True
        _STACK.push(self)
        try:
            yield self
        finally:
            _STACK.pop()
            self._active = False

    def reset(self) -> None:
        """Zero consumption, clear ``truncated``, disarm the deadline."""
        for name in self._consumed:
            self._consumed[name] = 0
        self.truncated = False
        self._deadline_at = None

    # -- accounting ----------------------------------------------------------

    @property
    def limits(self) -> dict[str, int | None]:
        return dict(self._limits)

    @property
    def consumed(self) -> dict[str, int]:
        return dict(self._consumed)

    def remaining(self, resource: str) -> int | None:
        """Remaining allowance (``None`` = unlimited, floor 0)."""
        limit = self._limits[resource]
        if limit is None:
            return None
        return max(0, limit - self._consumed[resource])

    def checkpoint(self) -> None:
        """Cooperative cancellation point.

        Once the deadline has passed this raises
        :class:`~repro.errors.DeadlineExceeded` — except in partial mode,
        where it marks the budget :attr:`truncated` and returns, so that
        checkpoints *not* wrapped by a :class:`ProducerGuard` (plan-node
        boundaries, solver internals, relation construction) wind the
        query down gracefully instead of erroring past the guards."""
        deadline = self._deadline_at
        if deadline is not None and time.monotonic() > deadline:
            if self.on_exhausted == "partial":
                self.mark_truncated()
                return
            raise DeadlineExceeded(
                f"query deadline of {self.deadline_seconds}s exceeded",
                resource="deadline_seconds",
                consumed=self.deadline_seconds,
                limit=self.deadline_seconds,
                snapshot=self.snapshot(),
            )

    def charge(self, resource: str, n: int = 1) -> None:
        """Consume ``n`` units of ``resource``; raise the resource's
        :class:`~repro.errors.ResourceExhausted` subclass once over the
        limit.  Mirrors the charge into the active obs registry (so
        ``EXPLAIN ANALYZE`` labels per-node consumption), except for the
        hot IO resource."""
        consumed = self._consumed[resource] + n
        self._consumed[resource] = consumed
        exc_type, obs_counter = _RESOURCES[resource]
        if obs_counter is not None:
            record(obs_counter, n)
        limit = self._limits[resource]
        if limit is not None and consumed > limit:
            raise exc_type(
                f"{resource} budget of {limit} exceeded (consumed {consumed})",
                resource=resource,
                consumed=consumed,
                limit=limit,
                snapshot=self.snapshot(),
            )

    def charge_io(self, n: int = 1) -> None:
        """The IO charge, kept minimal: one add and one compare per
        simulated disk access (one R*-tree node visit)."""
        consumed = self._consumed["io_accesses"] + n
        self._consumed["io_accesses"] = consumed
        limit = self._limits["io_accesses"]
        if limit is not None and consumed > limit:
            raise IOBudgetExceeded(
                f"io_accesses budget of {limit} exceeded (consumed {consumed})",
                resource="io_accesses",
                consumed=consumed,
                limit=limit,
                snapshot=self.snapshot(),
            )

    def mark_truncated(self) -> None:
        if not self.truncated:
            self.truncated = True
            record(GOVERNOR_TRUNCATIONS)

    def snapshot(self) -> dict[str, float]:
        """Consumed resources plus the budget-relevant obs counters — the
        diagnostics a :class:`~repro.errors.ResourceExhausted` carries."""
        out: dict[str, float] = {
            f"consumed.{name}": value for name, value in self._consumed.items()
        }
        for name, limit in self._limits.items():
            if limit is not None:
                out[f"limit.{name}"] = limit
        if self._deadline_at is not None:
            # Clamped at 0: after expiry the raw difference goes negative,
            # and snapshots travel (ResourceExhausted payloads, server wire
            # replies) where "-0.03 seconds remaining" reads as nonsense.
            out["deadline.remaining_seconds"] = max(
                0.0, self._deadline_at - time.monotonic()
            )
        registry = current_registry()
        for counter in _SNAPSHOT_COUNTERS:
            value = registry.value(counter)
            if value:
                out[counter] = value
        return out

    def summary(self) -> str:
        """One-line consumed/limit rendering for reports."""
        parts = []
        for name, value in self._consumed.items():
            limit = self._limits[name]
            if limit is not None:
                parts.append(f"{name}={value}/{limit}")
            elif value:
                parts.append(f"{name}={value}")
        if self.deadline_seconds is not None:
            parts.append(f"deadline={self.deadline_seconds}s")
        if self.truncated:
            parts.append("truncated")
        return "budget: " + (" ".join(parts) if parts else "(nothing consumed)")

    def __repr__(self) -> str:
        knobs = ", ".join(
            f"{name}={limit}" for name, limit in self._limits.items() if limit is not None
        )
        if self.deadline_seconds is not None:
            knobs = f"deadline_seconds={self.deadline_seconds}" + (f", {knobs}" if knobs else "")
        return f"<Budget {knobs or 'unlimited'} on_exhausted={self.on_exhausted}>"


# -- active-budget stack and cheap module-level hooks --------------------------


#: Per-thread active-budget stack (see the module docstring).  One of
#: three activation stacks sharing the :class:`ThreadLocalStack`
#: implementation — registries and columnar mode are the others.
_STACK = ThreadLocalStack()


def current_budget() -> Budget | None:
    """The budget governing the current evaluation, if any."""
    stack = _STACK.items
    return stack[-1] if stack else None


def checkpoint() -> None:
    """Deadline check at a loop boundary; no-op when ungoverned."""
    stack = _STACK.items
    if stack:
        stack[-1].checkpoint()


def charge(resource: str, n: int = 1) -> None:
    """Charge the active budget, if any."""
    stack = _STACK.items
    if stack:
        stack[-1].charge(resource, n)


def charge_io(n: int = 1) -> None:
    """IO charge for the active budget, if any (hot path: one list test
    when ungoverned)."""
    stack = _STACK.items
    if stack:
        stack[-1].charge_io(n)


class ProducerGuard:
    """Loop-boundary hook for tuple-producing operators.

    Binds the active budget once per operator call; each row boundary is
    then one attribute test when ungoverned.  In partial mode the guard
    converts exhaustion into a clean stop (``False``), which the operator
    answers by returning the tuples materialized so far.
    """

    __slots__ = ("budget",)

    def __init__(self) -> None:
        self.budget = current_budget()

    def start_row(self) -> bool:
        """Call before producing the next row: True = proceed, False =
        stop and return partial results.  Raises when ``on_exhausted``
        is ``"raise"`` and the deadline has passed."""
        budget = self.budget
        if budget is None:
            return True
        budget.checkpoint()  # raises in raise-mode, marks truncated in partial
        return not budget.truncated

    def produced(self, n: int = 1) -> bool:
        """Charge ``n`` output tuples; same contract as :meth:`start_row`."""
        budget = self.budget
        if budget is None:
            return True
        try:
            budget.charge("output_tuples", n)
        except ResourceExhausted:
            if budget.on_exhausted == "partial":
                budget.mark_truncated()
                return False
            raise
        return True

    def absorb(self, exc: ResourceExhausted) -> bool:
        """Whether an exhaustion raised *inside* one row's work (deep in
        the solver, say) should truncate the loop instead of propagating."""
        del exc
        budget = self.budget
        if budget is not None and budget.on_exhausted == "partial":
            budget.mark_truncated()
            return True
        return False
