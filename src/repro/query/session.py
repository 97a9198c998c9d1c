"""Multi-step query sessions.

CQA/CDB queries "are broken up into multiple steps … the last step of the
query produces the query output" (section 3.3).  A :class:`QuerySession`
executes a script statement by statement against a database: each
statement compiles to a plan, (optionally) passes through the optimizer,
is evaluated, and its result is bound to the statement's target name for
later steps to reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..algebra.optimizer import Optimizer
from ..algebra.plan import EvaluationContext, Metrics, PlanNode, evaluate
from ..analysis.diagnostics import Diagnostics
from ..errors import OutputLimitExceeded, QueryError, StaticAnalysisError
from ..exec import columnar_mode, default_exec_mode, uses_columnar
from ..governor.budget import Budget
from ..model.database import Database
from ..model.relation import ConstraintRelation
from ..model.schema import Schema
from ..obs import (
    COLUMNAR_BATCHES,
    COLUMNAR_BYPASSED,
    COLUMNAR_FALLBACK,
    COLUMNAR_FILTERED,
    GOVERNOR_DNF_CLAUSES,
    GOVERNOR_OUTPUT_TUPLES,
    GOVERNOR_SOLVER_STEPS,
    LOGICAL_NODE_ACCESSES,
    PHYSICAL_NODE_ACCESSES,
    SATISFIABILITY_CHECKS,
    SOLVER_BOX_DECIDED,
    SOLVER_CACHE_HITS,
    SOLVER_INTERVAL_PRUNES,
    SOLVER_REQUESTS,
    WAL_APPENDS,
    WAL_COMMITS,
    MetricsRegistry,
    Span,
)
from .ast import Statement
from .compiler import compile_statement
from .parser import parse_script, parse_statement

#: Per-node annotations shown by ``explain_analyze`` (label, counter).
_EXPLAIN_COUNTERS = (
    ("accesses", LOGICAL_NODE_ACCESSES),
    ("physical", PHYSICAL_NODE_ACCESSES),
)

#: Solver fast-path annotations, printed only when nonzero: ``sat`` is the
#: number of *full* decision-procedure solves the node paid for, while the
#: other labels count satisfiability answers the layered front-end produced
#: without a solve (see docs/QUERY_LANGUAGE.md, "Solver fast paths").
_EXPLAIN_SPARSE_COUNTERS = (
    ("sat", SATISFIABILITY_CHECKS),
    ("sat_cached", SOLVER_CACHE_HITS),
    ("interval_pruned", SOLVER_INTERVAL_PRUNES),
    ("box_decided", SOLVER_BOX_DECIDED),
    # Budget consumption mirrored at charge time; nonzero only when the
    # statement ran under an active Budget (see repro.governor).
    ("budget_steps", GOVERNOR_SOLVER_STEPS),
    ("budget_dnf", GOVERNOR_DNF_CLAUSES),
    ("budget_rows", GOVERNOR_OUTPUT_TUPLES),
    # Columnar fast-path effectiveness; nonzero only in
    # ``exec_mode="columnar"`` sessions (see docs/COLUMNAR.md).
    ("col_batches", COLUMNAR_BATCHES),
    ("col_filtered", COLUMNAR_FILTERED),
    ("col_fallback", COLUMNAR_FALLBACK),
    ("col_bypassed", COLUMNAR_BYPASSED),
    # Durable-write activity attributable to this statement; nonzero only
    # when a WAL transaction ran under the session's registry (see
    # docs/DURABILITY.md).
    ("wal_appends", WAL_APPENDS),
    ("wal_commits", WAL_COMMITS),
)


@dataclass
class ExplainAnalyzeReport:
    """The outcome of executing one statement under tracing.

    ``root`` is the plan's span tree: one :class:`~repro.obs.Span` per
    operator, annotated with output ``rows``, captured counters (node
    accesses, solver calls, …) and inclusive wall-clock time.  Rendered
    counter values are per-operator (exclusive); :meth:`total` answers
    whole-statement questions — e.g. ``total(LOGICAL_NODE_ACCESSES)``
    equals the sum of the underlying trees' ``search_accesses`` deltas.
    """

    statement: str
    target: str
    result: ConstraintRelation
    root: Span
    #: One-line consumed/limit rendering of the governing budget's window
    #: (``None`` when the session has no budget attached).
    budget_summary: str | None = None

    def columnar_summary(self) -> str | None:
        """One-line rendering of the columnar fast path's effectiveness,
        or ``None`` when the statement never probed it (row-mode
        sessions)."""
        batches = self.total(COLUMNAR_BATCHES)
        bypassed = self.total(COLUMNAR_BYPASSED)
        if not batches and not bypassed:
            return None
        filtered = self.total(COLUMNAR_FILTERED)
        fallback = self.total(COLUMNAR_FALLBACK)
        probed = filtered + fallback
        rate = (filtered / probed * 100.0) if probed else 0.0
        return (
            f"columnar: batches={batches} filtered={filtered} "
            f"fallback={fallback} hit_rate={rate:.1f}% bypassed={bypassed}"
        )

    def total(self, counter: str) -> int:
        """Whole-statement (root-inclusive) value of ``counter``."""
        return self.root.get(counter)

    @property
    def elapsed(self) -> float:
        """Whole-statement wall-clock seconds."""
        return self.root.elapsed

    def solver_savings(self) -> int:
        """Satisfiability answers produced without a full solve: requests
        minus the full decision-procedure runs actually paid for."""
        return self.total(SOLVER_REQUESTS) - self.total(SATISFIABILITY_CHECKS)

    def format(self) -> str:
        lines = [f"EXPLAIN ANALYZE {self.statement}"]
        lines.append(self.root.pretty(_EXPLAIN_COUNTERS, sparse=_EXPLAIN_SPARSE_COUNTERS))
        totals = [
            f"total: rows={len(self.result)}",
            f"accesses={self.total(LOGICAL_NODE_ACCESSES)}",
            f"physical={self.total(PHYSICAL_NODE_ACCESSES)}",
        ]
        if self.total(SOLVER_REQUESTS):
            totals.append(
                f"sat={self.total(SATISFIABILITY_CHECKS)}/{self.total(SOLVER_REQUESTS)}"
                f" (saved {self.solver_savings()})"
            )
        if self.result.truncated:
            totals.append("TRUNCATED")
        totals.append(f"time={self.elapsed * 1000:.3f}ms")
        lines.append("  ".join(totals))
        if self.budget_summary is not None:
            lines.append(self.budget_summary)
        columnar_line = self.columnar_summary()
        if columnar_line is not None:
            lines.append(columnar_line)
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.format()


class QuerySession:
    """Executes multi-step ASCII queries against a database.

    ``indexes`` has the evaluator's index-catalog shape
    (relation name → {attribute set → index strategy}); with
    ``use_optimizer=True`` (the default) selections over indexed base
    relations become index scans.

    ``budget`` attaches a :class:`~repro.governor.Budget` governing every
    statement: each one runs in a fresh accounting window, so the session
    stays usable after a statement is cancelled.  With the budget in
    ``on_exhausted="partial"`` mode a statement that exhausts its budget
    binds (and returns) the tuples materialized so far, with the result's
    ``truncated`` flag set.

    ``analysis`` controls the static analyzer (:mod:`repro.analysis`):

    * ``"off"`` — never analyze (the default);
    * ``"warn"`` — analyze every statement before running it and record
      the findings in :attr:`last_diagnostics`, but execute regardless
      (results are identical to ``"off"``);
    * ``"strict"`` — additionally reject statements carrying error-level
      diagnostics: unsafe/ill-formed statements raise
      :class:`~repro.errors.StaticAnalysisError` before execution, and a
      statement whose provable output already exceeds the budget raises
      :class:`~repro.errors.OutputLimitExceeded` without materializing a
      single tuple (only when the budget is in ``"raise"`` mode —
      ``"partial"`` budgets truncate at run time instead).

    ``exec_mode`` picks the execution flavour: ``"columnar"`` turns on
    the vectorized fast path (bit-identical results, see
    ``docs/COLUMNAR.md``); ``"row"`` forces it off; ``"auto"`` is the
    default row path.  ``None`` reads ``$REPRO_EXEC_MODE`` (default
    ``"auto"``).

    :meth:`close` (or leaving the session's ``with`` block) marks the
    session closed; a closed session rejects further statements.
    """

    _ANALYSIS_MODES = ("off", "warn", "strict")

    def __init__(
        self,
        database: Database,
        indexes: Mapping[str, Mapping[frozenset[str], object]] | None = None,
        use_optimizer: bool = True,
        registry: MetricsRegistry | None = None,
        budget: Budget | None = None,
        analysis: str = "off",
        exec_mode: str | None = None,
    ) -> None:
        if analysis not in self._ANALYSIS_MODES:
            raise ValueError(
                f"analysis must be one of {self._ANALYSIS_MODES}, got {analysis!r}"
            )
        if exec_mode is None:
            exec_mode = default_exec_mode()
        self._columnar = uses_columnar(exec_mode)
        self._exec_mode = exec_mode
        self._workspace = Database({name: database[name] for name in database})
        self._indexes = {k: dict(v) for k, v in (indexes or {}).items()}
        self._use_optimizer = use_optimizer
        self._context = EvaluationContext(self._workspace, self._indexes, registry)
        self._results: dict[str, ConstraintRelation] = {}
        self._last: ConstraintRelation | None = None
        self._budget = budget
        self._analysis = analysis
        self._last_diagnostics: Diagnostics | None = None
        self._closed = False

    # -- lifecycle ----------------------------------------------------------

    @property
    def exec_mode(self) -> str:
        """The session's execution mode as given (``"columnar"`` means the
        vectorized fast path is active for every statement)."""
        return self._exec_mode

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run; closed sessions reject new
        statements (the server closes tenant sessions on drain)."""
        return self._closed

    def close(self) -> None:
        """Mark the session closed.  Idempotent: repeated calls —
        including via ``__exit__`` after an explicit close — are
        no-ops."""
        self._closed = True

    def __enter__(self) -> "QuerySession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- execution ----------------------------------------------------------

    def execute(self, text: str) -> ConstraintRelation:
        """Execute one statement line, bind and return its result."""
        return self._run(parse_statement(text))

    def run_script(self, script: str) -> ConstraintRelation:
        """Execute a whole script; returns the last statement's result."""
        result: ConstraintRelation | None = None
        for statement in parse_script(script):
            result = self._run(statement)
        assert result is not None  # parse_script rejects empty scripts
        return result

    def analyze(self, script: str) -> Diagnostics:
        """Statically analyze a statement or script against the current
        workspace bindings, without executing anything."""
        from ..analysis.analyzer import analyze_script

        diagnostics = analyze_script(script, self._workspace, self._budget)
        self._last_diagnostics = diagnostics
        return diagnostics

    def _analyze_statement(self, statement: Statement) -> Diagnostics:
        from ..analysis.analyzer import Analyzer, build_environment

        analyzer = Analyzer(build_environment(self._workspace), self._budget)
        return Diagnostics(analyzer.analyze_statement(statement))

    def _enforce(self, statement: Statement) -> None:
        """Run the analyzer per the session's ``analysis`` mode; in strict
        mode, raise before the statement executes."""
        diagnostics = self._analyze_statement(statement)
        self._last_diagnostics = diagnostics
        if self._analysis != "strict" or not diagnostics.has_errors:
            return
        blocking = [d for d in diagnostics.errors if d.code != "CQA402"]
        if blocking:
            raise StaticAnalysisError(
                "strict analysis rejected the statement:\n" + diagnostics.render(),
                diagnostics,
            )
        budget = self._budget
        if budget is not None and budget.on_exhausted == "raise":
            # CQA402: the statement provably cannot fit the budget, so it
            # fails fast with the same taxonomy a run-time overrun raises.
            overrun = next(d for d in diagnostics.errors if d.code == "CQA402")
            raise OutputLimitExceeded(
                f"rejected before execution: {overrun.message}",
                resource="output_tuples",
                limit=budget.limits.get("output_tuples"),
                snapshot=budget.snapshot(),
            )

    def _run(self, statement: Statement) -> ConstraintRelation:
        if self._closed:
            raise QueryError("QuerySession is closed")
        if self._analysis != "off":
            self._enforce(statement)
        schemas = self._schemas()
        plan = compile_statement(statement.body, schemas)
        plan = self.plan_for(plan)
        with columnar_mode(self._columnar):
            result = self._evaluate_governed(plan, self._budget, statement.target)
        self._workspace.add(statement.target, result, replace=True)
        self._results[statement.target] = result
        self._last = result
        return result

    def _evaluate_governed(
        self, plan: PlanNode, budget: Budget | None, target: str
    ) -> ConstraintRelation:
        if budget is None:
            return evaluate(plan, self._context).with_name(target)
        with budget.activate():
            result = evaluate(plan, self._context).with_name(target)
        if budget.truncated:
            result = result.with_truncated()
        return result

    def explain_analyze(self, text: str) -> ExplainAnalyzeReport:
        """Execute one statement and report its per-operator span tree.

        The statement *runs for real* (its result is bound for later
        steps, exactly like :meth:`execute`); the report carries the
        result plus per-operator rows, node accesses and timings."""
        statement = parse_statement(text)
        result = self._run(statement)
        root = self._context.registry.last_trace
        assert root is not None  # _run always opens a root span
        return ExplainAnalyzeReport(
            statement=text.strip(),
            target=statement.target,
            result=result,
            root=root,
            budget_summary=self._budget.summary() if self._budget is not None else None,
        )

    def plan_for(self, plan: PlanNode) -> PlanNode:
        """The plan as it would actually run (after optimization)."""
        if self._use_optimizer:
            plan = Optimizer(self._workspace, self._indexes).optimize(plan)
        return plan

    def explain(self, text: str) -> str:
        """The optimized plan for one statement, without executing it."""
        statement = parse_statement(text)
        plan = compile_statement(statement.body, self._schemas())
        return self.plan_for(plan).pretty()

    # -- results ---------------------------------------------------------------

    def _schemas(self) -> dict[str, Schema]:
        return {name: self._workspace[name].schema for name in self._workspace}

    def __getitem__(self, name: str) -> ConstraintRelation:
        try:
            return self._workspace[name]
        except Exception:
            raise QueryError(f"no result or relation named {name!r}") from None

    def __contains__(self, name: object) -> bool:
        return name in self._workspace

    @property
    def last(self) -> ConstraintRelation:
        if self._last is None:
            raise QueryError("no statement has been executed yet")
        return self._last

    @property
    def results(self) -> Mapping[str, ConstraintRelation]:
        """All intermediate results bound so far, by target name."""
        return dict(self._results)

    @property
    def metrics(self) -> Metrics:
        """Evaluation metrics accumulated across the session."""
        return self._context.metrics

    @property
    def registry(self) -> MetricsRegistry:
        """The session's metrics registry (counters, timers, last trace)."""
        return self._context.registry

    @property
    def budget(self) -> Budget | None:
        """The attached resource budget, if any."""
        return self._budget

    @budget.setter
    def budget(self, budget: Budget | None) -> None:
        self._budget = budget

    @property
    def analysis(self) -> str:
        """The static-analysis mode: ``"off"``, ``"warn"`` or ``"strict"``."""
        return self._analysis

    @analysis.setter
    def analysis(self, mode: str) -> None:
        if mode not in self._ANALYSIS_MODES:
            raise ValueError(f"analysis must be one of {self._ANALYSIS_MODES}, got {mode!r}")
        self._analysis = mode

    @property
    def last_diagnostics(self) -> Diagnostics | None:
        """The most recent analyzer report (``None`` until the analyzer
        has run — via :meth:`analyze` or a non-``"off"`` analysis mode)."""
        return self._last_diagnostics
