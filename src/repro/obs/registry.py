"""The metrics registry: named counters/timers with scoped attribution.

Every access-counting producer in the system (the R*-tree, the buffer
pool, the constraint solvers, the plan evaluator) reports through a
:class:`MetricsRegistry` instead of keeping private tallies that consumers
delta-read.  Two capture mechanisms sit on top of the flat counters:

* :meth:`MetricsRegistry.scope` — a context manager capturing every
  increment made while it is open, used for per-operator attribution
  (replacing the ``before = tree.search_accesses`` delta pattern, which
  misattributes work as soon as two operators share an index);
* :meth:`MetricsRegistry.trace` — a :class:`~repro.obs.span.Span`-producing
  scope that also records wall-clock time and nests into a tree, used for
  ``EXPLAIN ANALYZE``-style per-plan-node reporting.

Both push the registry onto the *active registry* stack, so producers that
cannot be handed a registry explicitly (the elimination and simplex modules
are plain functions) call :func:`record` and their work is attributed to
whichever registry is currently evaluating.  A module-level default registry
sits at the bottom of the stack so standalone calls are still counted
somewhere.

The active stack is **thread-local**: the query server runs tenants on a
thread pool, each activating its own session registry, and a shared stack
would interleave their pushes and misattribute work.  A single
:class:`MetricsRegistry` instance is still not safe for *concurrent
mutation* from multiple threads — the server gives every tenant session
its own registry and merges the snapshots afterwards on the event loop
(:meth:`MetricsRegistry.merge_snapshot`).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator, Mapping

from .._concurrency import ThreadLocalStack
from .span import Span

# -- canonical counter names --------------------------------------------------

#: Logical index node accesses — the paper's Figures 4–5 y-axis unit.
LOGICAL_NODE_ACCESSES = "index.node_accesses.logical"
#: Physical (simulated disk) reads: buffer-pool misses when a pool is
#: attached, otherwise equal to the logical count.
PHYSICAL_NODE_ACCESSES = "index.node_accesses.physical"
#: Node writes accumulated by insert/delete (write I/O model).
WRITE_NODE_ACCESSES = "index.node_accesses.write"

POOL_REQUESTS = "buffer_pool.requests"
POOL_HITS = "buffer_pool.hits"
POOL_MISSES = "buffer_pool.misses"
POOL_EVICTIONS = "buffer_pool.evictions"

ELIMINATE_CALLS = "solver.eliminate_calls"
FOURIER_MOTZKIN_STEPS = "solver.fourier_motzkin_steps"
#: Full decision-procedure satisfiability solves (Fourier–Motzkin or
#: simplex).  Requests answered by the layered fast paths (interval
#: propagation, memo cache) deliberately do *not* count here, so the gap
#: between ``solver.requests`` and this counter is the solver work saved.
SATISFIABILITY_CHECKS = "solver.satisfiability_checks"
SIMPLEX_CALLS = "solver.simplex_calls"

#: Satisfiability requests entering the layered solver front-end
#: (:mod:`repro.constraints.solver`).
SOLVER_REQUESTS = "solver.requests"
#: Requests answered from the memoized satisfiability cache.
SOLVER_CACHE_HITS = "solver.cache.hits"
#: Requests that missed the cache and ran a full decision procedure.
SOLVER_CACHE_MISSES = "solver.cache.misses"
#: Systems decided *unsatisfiable* by interval propagation alone
#: (includes join-pair prunes, which are also counted separately below).
SOLVER_INTERVAL_PRUNES = "solver.interval.prunes"
#: Pure-box systems decided *satisfiable* by interval propagation alone.
SOLVER_BOX_DECIDED = "solver.interval.box_decided"
#: Join tuple pairs rejected by comparing the two sides' interval
#: summaries, without ever building or solving the combined conjunction.
SOLVER_JOIN_PRUNES = "solver.interval.join_prunes"
#: Full checks the adaptive dispatcher routed to the simplex backend.
SOLVER_SIMPLEX_ROUTED = "solver.dispatch.simplex"
#: Full checks the adaptive dispatcher routed to Fourier–Motzkin.
SOLVER_FM_ROUTED = "solver.dispatch.fourier_motzkin"

#: Spatial refinement work skipped via bounding-box distance lower bounds
#: (whole candidates in Buffer-Join, convex part pairs in exact distance).
SPATIAL_REFINE_PRUNES = "spatial.refine.prunes"

#: Governor budget consumption, recorded only while a budget is active so
#: ``EXPLAIN ANALYZE`` can label per-node charges.  The IO budget is
#: deliberately *not* mirrored here: its charge site (R*-tree node
#: visits) is the hot path, and the existing
#: ``index.node_accesses.*`` counters already expose the same quantity.
GOVERNOR_SOLVER_STEPS = "governor.charged.solver_steps"
GOVERNOR_DNF_CLAUSES = "governor.charged.dnf_clauses"
GOVERNOR_OUTPUT_TUPLES = "governor.charged.output_tuples"
#: Producer loops cut short by partial-mode graceful degradation.
GOVERNOR_TRUNCATIONS = "governor.truncations"

#: Transient storage failures retried by the bounded-backoff helper.
STORAGE_RETRIES = "storage.retries"
#: Faults injected by an active :class:`~repro.governor.FaultPlan`.
STORAGE_FAULTS_INJECTED = "storage.faults_injected"

#: Total tuples produced across all plan operators.
TUPLES_PRODUCED = "plan.tuples_produced"

#: Columnar fast path (:mod:`repro.exec.columnar`): vectorized batches
#: evaluated, rows/pairs eliminated by the float filter, candidates that
#: survived it and went to the exact fallback, and dispatches where the
#: probe bypassed the fast path (no numpy, batch too small, or no
#: vectorizable predicate bounds).  ``hit rate = filtered / (filtered +
#: fallback)``.
COLUMNAR_BATCHES = "columnar.batches"
COLUMNAR_FILTERED = "columnar.filtered"
COLUMNAR_FALLBACK = "columnar.fallback"
COLUMNAR_BYPASSED = "columnar.bypassed"

#: Query server (:mod:`repro.server`): request/reply accounting.  Per-query
#: engine counters (solver, IO, governor charges) are merged into the
#: server registry from each tenant session after every request, so
#: server-side counters and ``EXPLAIN ANALYZE`` share one pipeline.
SERVER_REQUESTS = "server.requests"
SERVER_REPLIES_OK = "server.replies.ok"
SERVER_REPLIES_ERROR = "server.replies.error"
#: Requests refused by queue-depth admission control (429-style reply).
SERVER_SHED = "server.shed"
#: Budget exhaustion surfaced to a client as a structured 429-style reply.
SERVER_EXHAUSTED = "server.exhausted"
#: Connections that dropped before their in-flight reply could be written.
SERVER_DISCONNECTS = "server.disconnects"
#: In-flight queries completed during graceful shutdown draining.
SERVER_DRAINED = "server.drained"
#: Idle tenant sessions closed by the TTL sweep (``ServerConfig.session_ttl``).
SERVER_EVICTED = "server.evicted"
#: Hot reloads completed (``reload`` op / SIGHUP): the snapshot was swapped.
SERVER_RELOADS = "server.reload.count"
#: Hot reloads that failed (bad file, corruption); the old snapshot stays.
SERVER_RELOAD_ERRORS = "server.reload.errors"
#: Tenant sessions retired by a reload (closed once their reader drained).
SERVER_RELOAD_RETIRED = "server.reload.retired_sessions"

#: Write-ahead log (:mod:`repro.storage.wal`): the durable write path.
#: One record appended to the log (checksummed, length-prefixed).
WAL_APPENDS = "wal.appends"
#: Transactions made durable (commit record written and fsynced).
WAL_COMMITS = "wal.commits"
#: ``fsync`` barriers paid by the log (the commit-latency driver).
WAL_FSYNCS = "wal.fsyncs"
#: Records replayed into the database image by recovery-on-open.
WAL_REPLAYED = "wal.replayed_records"
#: Recovery-on-open passes that found a non-empty log to replay.
WAL_RECOVERIES = "wal.recoveries"
#: Torn-tail bytes truncated by recovery (a crash mid-append).
WAL_TRUNCATED_BYTES = "wal.truncated_bytes"
#: Checkpoints: the image was atomically rewritten and the log reset.
WAL_CHECKPOINTS = "wal.checkpoints"


class Counter:
    """A named integer metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def add(self, n: int = 1) -> None:
        self.value += n

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:
        return f"<Counter {self.name}={self.value}>"


class Timer:
    """Accumulated wall-clock seconds over a named region."""

    __slots__ = ("name", "total_seconds", "calls")

    def __init__(self, name: str):
        self.name = name
        self.total_seconds = 0.0
        self.calls = 0

    def add(self, seconds: float) -> None:
        self.total_seconds += seconds
        self.calls += 1

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.calls if self.calls else 0.0

    def reset(self) -> None:
        self.total_seconds = 0.0
        self.calls = 0

    def __repr__(self) -> str:
        return f"<Timer {self.name}={self.total_seconds:.6f}s/{self.calls}>"


class MetricsRegistry:
    """Named counters and timers plus scoped/span attribution."""

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._timers: dict[str, Timer] = {}
        self._frames: list[dict[str, int]] = []
        self._span_stack: list[Span] = []
        #: The most recently completed *root* span (set when the outermost
        #: :meth:`trace` exits); ``explain_analyze`` reads it.
        self.last_trace: Span | None = None

    # -- counters / timers --------------------------------------------------

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def timer(self, name: str) -> Timer:
        timer = self._timers.get(name)
        if timer is None:
            timer = self._timers[name] = Timer(name)
        return timer

    def add(self, name: str, n: int = 1) -> None:
        """Increment a counter, attributing to every open scope/span."""
        self.counter(name).add(n)
        for frame in self._frames:
            frame[name] = frame.get(name, 0) + n

    def value(self, name: str) -> int:
        counter = self._counters.get(name)
        return counter.value if counter is not None else 0

    def _drop_frame(self, frame: dict[str, int]) -> None:
        # Remove by identity, not list.remove's equality — nested frames
        # with equal contents (e.g. two empty dicts) would pop the wrong one.
        for i in range(len(self._frames) - 1, -1, -1):
            if self._frames[i] is frame:
                del self._frames[i]
                return

    # -- capture ------------------------------------------------------------

    @contextmanager
    def scope(self, label: str = "") -> Iterator[dict[str, int]]:
        """Capture the counter increments made while the scope is open.

        Yields the capture dict (counter name → delta).  Scopes nest:
        increments land in every open scope, so an operator's scope sees
        its own work even while an enclosing statement scope is open.
        """
        del label  # scopes are anonymous captures; label aids call sites
        frame: dict[str, int] = {}
        self._frames.append(frame)
        _STACK.push(self)
        try:
            yield frame
        finally:
            _STACK.pop()
            self._drop_frame(frame)

    @contextmanager
    def trace(self, name: str, kind: str = "") -> Iterator[Span]:
        """A timed, counter-capturing span; nests into a span tree."""
        span = Span(name=name, kind=kind)
        parent = self._span_stack[-1] if self._span_stack else None
        self._span_stack.append(span)
        self._frames.append(span.counters)
        start = time.perf_counter()
        _STACK.push(self)
        try:
            yield span
        finally:
            span.elapsed = time.perf_counter() - start
            _STACK.pop()
            self._drop_frame(span.counters)
            self._span_stack.pop()
            if parent is not None:
                parent.children.append(span)
            else:
                self.last_trace = span

    @contextmanager
    def timed(self, name: str) -> Iterator[Timer]:
        """Accumulate the block's wall-clock time into ``timer(name)``."""
        timer = self.timer(name)
        start = time.perf_counter()
        try:
            yield timer
        finally:
            timer.add(time.perf_counter() - start)

    @contextmanager
    def activate(self) -> Iterator["MetricsRegistry"]:
        """Make this the registry :func:`record` reports to."""
        _STACK.push(self)
        try:
            yield self
        finally:
            _STACK.pop()

    # -- reporting -----------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """All metric values by name (timers as ``<name>.seconds``)."""
        out: dict[str, float] = {
            name: counter.value for name, counter in sorted(self._counters.items())
        }
        for name, timer in sorted(self._timers.items()):
            out[f"{name}.seconds"] = timer.total_seconds
        return out

    def merge_snapshot(self, snapshot: Mapping[str, float]) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counter values are added via :meth:`add`, so open scopes and spans
        capture the merged work — this is how tenant-session registries
        land in the server registry.  ``<name>.seconds`` entries are
        folded into the matching timer.
        """
        for name, value in snapshot.items():
            if name.endswith(".seconds"):
                if value:
                    self.timer(name[: -len(".seconds")]).add(float(value))
            elif value:
                self.add(name, int(value))

    def reset(self) -> None:
        """Zero every counter and timer (open scopes/spans are unaffected:
        they capture deltas, not absolute values)."""
        for counter in self._counters.values():
            counter.reset()
        for timer in self._timers.values():
            timer.reset()

    def report(self) -> str:
        """A formatted metrics table (non-zero metrics only)."""
        rows = [
            (name, str(counter.value))
            for name, counter in sorted(self._counters.items())
            if counter.value
        ]
        rows.extend(
            (name, f"{timer.total_seconds * 1000:.3f}ms /{timer.calls}")
            for name, timer in sorted(self._timers.items())
            if timer.calls
        )
        if not rows:
            return "(no metrics recorded)"
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name:<{width}}  {value}" for name, value in rows)

    def __repr__(self) -> str:
        return (
            f"<MetricsRegistry {len(self._counters)} counters, "
            f"{len(self._timers)} timers>"
        )


# -- active-registry stack -----------------------------------------------------


#: Per-thread active-registry stack: thread-local so concurrent server
#: tenants each keep their own activation chain without interleaving.
#: Shares the :class:`ThreadLocalStack` implementation with the budget
#: and columnar-mode stacks.
_STACK = ThreadLocalStack()
_DEFAULT = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-wide fallback registry."""
    return _DEFAULT


def current_registry() -> MetricsRegistry:
    """The registry unbound producers report to right now."""
    stack = _STACK.items
    return stack[-1] if stack else _DEFAULT


def record(name: str, n: int = 1) -> None:
    """Increment ``name`` on the currently active registry.

    The escape hatch for producers that are plain functions (constraint
    elimination, simplex): when called during plan evaluation the active
    registry is the evaluating session's, so the work is attributed to the
    right query and captured by any open spans.
    """
    current_registry().add(name, n)
