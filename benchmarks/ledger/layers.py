"""Per-layer attribution, measured from outside the program.

The traced phase follows an ordinary untraced timed phase in the same
process and has four parts:

1. **Traced client passes** — a fixed number of whole passes through the real target
   (server or sessions), one span per request: client round trip, the
   server's own ``elapsed_ms``, and the server registry read back through
   the ``stats`` op.
2. **Shadow passes** — as many passes again, replaying each statement
   through the same public calls ``QuerySession._run`` and the server
   make (``encode_frame``/``decode_payload``, ``parse_statement``,
   ``compile_statement``, ``Optimizer.optimize``, ``evaluate`` under
   ``registry.scope()``, ``pretty(limit=20)``), one span per call.  The
   shadow is single-threaded and runs on warmed caches, so its counters
   repeat exactly from run to run.
3. **Explain passes** — interleaved with the shadow statement by
   statement: ``explain_analyze`` on a default ``QuerySession`` for
   per-operator exclusive time; its call time is the ``session.execute``
   time ``trace.coverage`` divides by.
4. **Probes** — direct calls into single layers (solver, analyzer, image
   save/load, index build, WAL write/recover) that no statement isolates.

Counters are read by string name from registry snapshots; a name the
registry never saw reads 0 (counters are created on first increment).
A metric whose operation does not occur on the workload is ``None``.
"""

from __future__ import annotations

import itertools
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro.algebra import EvaluationContext, Optimizer, evaluate
from repro.analysis.analyzer import analyze_script
from repro.constraints import solver
from repro.model.database import Database
from repro.obs import MetricsRegistry
from repro.query import QuerySession, compile_statement, parse_statement
from repro.server import decode_payload, encode_frame
from repro.spatial import FeatureSet
from repro.storage import load_database, open_durable, save_database

from catalog import PER_LAYER
from measure import Sample, percentile, run_clients, whole_passes
from workloads import (
    FEED_BATCH,
    FEED_PERIOD,
    IndexProbe,
    IngestReload,
    Op,
    ServerWorkload,
    Spatial,
    Workload,
    feed_tuples,
    write_cycle,
)

#: Each traced part runs a fixed number of whole passes, so its counters
#: repeat exactly: two, or as many as give ~64 statements on short lists
#: (18 requests are too few for a median round trip).
TRACED_STATEMENTS = 64
PROBE_FORMULAS = 200
RECOVERY_TRANSACTIONS = 300
RECOVERY_REOPENS = 5

#: Span kinds of ``explain_analyze`` trees → the catalogue's operator names.
_OPERATOR_OF_KIND = {
    "Scan": "scan",
    "Select": "select",
    "Project": "project",
    "Join": "join",
    "Difference": "difference",
    "IndexScan": "indexscan",
    "BufferJoinNode": "bufferjoin",
    "KNearestNode": "knearest",
}

_FRAME_PREFIX = 4  # the length prefix encode_frame puts before the JSON body

#: The shadow spans that make up what ``session.execute`` does.
_SESSION_LAYERS = ("query.parse", "query.compile", "algebra.optimize", "algebra.evaluate")


class Tracer:
    """Spans kept in memory: name, start, end, parent, request id."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._stack: list[int] = []
        self._ids = itertools.count(1)

    def add(self, name: str, request: Any, start: float, end: float) -> None:
        """A finished span recorded from outside (client threads)."""
        self.spans.append(
            {"id": next(self._ids), "parent": None, "name": name, "request": request,
             "start": start, "end": end}
        )

    @contextmanager
    def span(self, name: str, request: Any) -> Iterator[None]:
        span_id = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(
                {"id": span_id, "parent": parent, "name": name, "request": request,
                 "start": start, "end": end}
            )

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name: a span's duration minus the part
        its child spans cover."""
        covered: dict[int, float] = {}
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] = (
                    covered.get(span["parent"], 0.0) + span["end"] - span["start"]
                )
        totals: dict[str, float] = {}
        for span in self.spans:
            own = span["end"] - span["start"] - covered.get(span["id"], 0.0)
            totals[span["name"]] = totals.get(span["name"], 0.0) + own
        return totals


class _Shadow:
    """One tenant session's pipeline, rebuilt from public calls."""

    def __init__(self, db: Database, indexes: Mapping, tracer: Tracer) -> None:
        self.workspace = Database({name: db[name] for name in db})
        self.indexes = indexes
        self.registry = MetricsRegistry()
        self.context = EvaluationContext(self.workspace, indexes, self.registry)
        self.tracer = tracer
        self.counters: dict[str, int] = {}

    def run(self, op: Op, request: int) -> None:
        span = self.tracer.span
        with span("shadow.statement", request):
            wire: dict[str, Any] = (
                {"op": "ping", "id": request}
                if op.is_ping
                else {"op": "query", "tenant": "shadow", "statement": op.text,
                      "limit": 20, "id": request}
            )
            with span("server.codec", request):
                payload = decode_payload(encode_frame(wire)[_FRAME_PREFIX:])
            reply: dict[str, Any] = {"ok": True, "id": request, "status": 200}
            if op.is_ping:
                reply.update(pong=True, draining=False)
            else:
                started = time.perf_counter()
                with span("query.parse", request):
                    statement = parse_statement(payload["statement"])
                with span("query.compile", request):
                    schemas = {n: self.workspace[n].schema for n in self.workspace}
                    plan = compile_statement(statement.body, schemas)
                with span("algebra.optimize", request):
                    plan = Optimizer(self.workspace, self.indexes).optimize(plan)
                with span("algebra.evaluate", request), self.registry.scope() as counters:
                    result = evaluate(plan, self.context).with_name(statement.target)
                for name, value in counters.items():
                    self.counters[name] = self.counters.get(name, 0) + value
                self.workspace.add(statement.target, result, replace=True)
                with span("server.render", request):
                    text = result.pretty(limit=payload["limit"])
                reply.update(
                    tenant="shadow",
                    result={"target": result.name, "rows": len(result),
                            "truncated": result.truncated, "text": text},
                    elapsed_ms=(time.perf_counter() - started) * 1000.0,
                )
            with span("server.codec", request):
                decode_payload(encode_frame(reply)[_FRAME_PREFIX:])


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _mean_us(seconds: Sequence[float]) -> float | None:
    return statistics.fmean(seconds) * 1e6 if seconds else None


def _timed(call: Callable[..., Any], *args: Any) -> tuple[float, Any]:
    started = time.perf_counter()
    value = call(*args)
    return time.perf_counter() - started, value


# -- the traced phase ----------------------------------------------------------


def traced_phase(
    workload: Workload,
    targets: Sequence[Any],
    untraced: Sequence[Sample],
) -> tuple[dict[str, float | None], list[Sample], Tracer]:
    """Run the four traced parts; returns every per-layer metric by name
    (``None`` = not applicable), the traced client samples, the spans."""
    tracer = Tracer()
    passes = max(2, -(-TRACED_STATEMENTS // len(workload.ops)))
    metrics: dict[str, float | None] = dict.fromkeys(m.name for m in PER_LAYER)

    # The timed phase stopped mid-list; one untimed pass puts tenant
    # bindings and the LRU pool back at a pass boundary, so the counted
    # passes below start from the same state in every run.
    run_clients(workload, targets, passes=1)
    traced = _client_passes(workload, targets, passes, tracer, untraced, metrics)
    shadows = _shadow_passes(workload, passes, tracer, traced, metrics)

    # Probes; the solver probe clears the caches, so it goes last.
    workspace = next(iter(shadows.values())).workspace
    metrics["analysis.analyze_us"] = _mean_us(
        [_timed(analyze_script, op.text, workspace)[0] for op in workload.ops if not op.is_ping]
    )
    metrics.update(_image_probe(workload.db, workload.workdir))
    if isinstance(workload, IngestReload):
        metrics["commit_p50_ms"] = statistics.median(workload.commit_s) * 1000.0
        metrics["reload_p50_ms"] = statistics.median(workload.reload_s) * 1000.0
        metrics.update(_write_probe(workload))
        metrics.update(_recovery_probe(workload))
    metrics.update(_solver_probe(workspace))
    return metrics, traced, tracer


def _client_passes(
    workload: Workload,
    targets: Sequence[Any],
    passes: int,
    tracer: Tracer,
    untraced: Sequence[Sample],
    metrics: dict[str, float | None],
) -> list[Sample]:
    """Part 1: whole passes through the real target, one span per request."""
    statements = passes * len(workload.ops)
    pool = workload.pool if isinstance(workload, IndexProbe) else None
    if pool is not None:
        before = (pool.stats.requests, pool.stats.hits, pool.stats.evictions)

    def on_request(number: int, started: float, ended: float) -> None:
        tracer.add("client.request", number, started, ended)

    with workload.background():
        traced = run_clients(workload, targets, passes=passes, on_request=on_request)
    good_untraced = sorted(s.seconds for s in whole_passes(untraced) if s.ok)
    good_traced = sorted(s.seconds for s in traced if s.ok)
    if good_untraced and good_traced:
        metrics["trace.overhead_ratio"] = percentile(good_traced, 0.5) / percentile(good_untraced, 0.5)
    if pool is not None:
        requests = pool.stats.requests - before[0]
        hits = pool.stats.hits - before[1]
        metrics["disk_accesses_per_op"] = (requests - hits) / statements
        metrics["storage.pool_hit_ratio"] = _ratio(hits, requests)
        metrics["storage.pool_evictions_per_op"] = (pool.stats.evictions - before[2]) / statements
    if isinstance(workload, ServerWorkload):
        overheads = [
            s.seconds * 1000.0 - s.server_ms for s in traced if s.ok and s.server_ms is not None
        ]
        if overheads:
            metrics["server.overhead_ms"] = statistics.median(overheads)
        with workload.harness.client() as client:
            pings = [_timed(client.ping)[0] for _ in range(50)]
            server_counters = client.stats()["counters"]
        metrics["server.ping_ms"] = statistics.median(pings) * 1000.0
        metrics["server.shed"] = server_counters.get("server.shed", 0)
        metrics["server.replies_error"] = server_counters.get("server.replies.error", 0)
    return traced


def _shadow_passes(
    workload: Workload,
    passes: int,
    tracer: Tracer,
    traced: Sequence[Sample],
    metrics: dict[str, float | None],
) -> dict[str, _Shadow]:
    """Parts 2 and 3, interleaved statement by statement so that machine
    drift between passes cancels in ``trace.coverage``."""
    ops = workload.ops
    statements = passes * len(ops)
    query_ops = passes * sum(1 for op in ops if not op.is_ping)
    shadows: dict[str, _Shadow] = {}
    sessions: dict[str, QuerySession] = {}
    operator_seconds: dict[str, float] = {}
    execute_seconds = 0.0
    for number in range(passes):
        for index, op in enumerate(ops):
            if op.session not in shadows:
                indexes = workload.shadow_indexes(op)
                shadows[op.session] = _Shadow(workload.db, indexes, tracer)
                sessions[op.session] = QuerySession(workload.db, indexes=indexes)
            shadows[op.session].run(op, number * len(ops) + index)
            if op.is_ping:
                continue
            seconds, report = _timed(sessions[op.session].explain_analyze, op.text)
            execute_seconds += seconds
            for node in report.root.walk():
                operator = _OPERATOR_OF_KIND.get(node.kind)
                if operator is not None:
                    operator_seconds[operator] = (
                        operator_seconds.get(operator, 0.0) + node.elapsed_exclusive
                    )
    for session in sessions.values():
        session.close()

    own = tracer.self_seconds()
    counters: dict[str, int] = {}
    for shadow in shadows.values():
        for name, value in shadow.counters.items():
            counters[name] = counters.get(name, 0) + value

    def per_op(name: str) -> float:
        return counters.get(name, 0) / query_ops

    def own_us(name: str, per: int = query_ops) -> float:
        return own.get(name, 0.0) / per * 1e6

    if isinstance(workload, ServerWorkload):
        metrics["server.codec_us"] = own_us("server.codec", statements)
        metrics["server.render_us"] = own_us("server.render")
        metrics["trace.evaluate_share"] = _ratio(
            own.get("algebra.evaluate", 0.0) / statements,
            sum(s.seconds for s in traced) / len(traced),
        )
    metrics["query.parse_us"] = own_us("query.parse")
    metrics["query.compile_us"] = own_us("query.compile")
    metrics["algebra.optimize_us"] = own_us("algebra.optimize")
    metrics["algebra.evaluate_ms"] = own_us("algebra.evaluate") / 1e3
    metrics["algebra.tuples_produced_per_op"] = per_op("plan.tuples_produced")
    for operator, seconds in operator_seconds.items():
        metrics[f"algebra.op.{operator}.self_ms"] = seconds / query_ops * 1e3
    metrics["trace.coverage"] = _ratio(
        sum(own.get(name, 0.0) for name in _SESSION_LAYERS), execute_seconds
    )

    cache_hits = counters.get("solver.cache.hits", 0)
    metrics["constraints.sat_requests_per_op"] = per_op("solver.requests")
    metrics["constraints.full_solves_per_op"] = per_op("solver.satisfiability_checks")
    metrics["constraints.cache_hit_ratio"] = _ratio(
        cache_hits, cache_hits + counters.get("solver.cache.misses", 0)
    )
    # Useful outcomes per attempt: questions the interval layer answered
    # alone, over every question asked.  A join pair rejected by the
    # summary pre-filter is counted in interval.prunes but never becomes a
    # solver request, so it is added to the attempts, not to the outcomes.
    metrics["constraints.fastpath_ratio"] = _ratio(
        counters.get("solver.interval.prunes", 0)
        + counters.get("solver.interval.box_decided", 0),
        counters.get("solver.requests", 0) + counters.get("solver.interval.join_prunes", 0),
    )
    metrics["constraints.fm_steps_per_op"] = per_op("solver.fourier_motzkin_steps")
    metrics["constraints.simplex_calls_per_op"] = per_op("solver.simplex_calls")
    metrics["constraints.cache_evictions"] = solver.cache_info()["evictions"]

    filtered = counters.get("columnar.filtered", 0)
    metrics["exec.columnar_batches_per_op"] = per_op("columnar.batches")
    metrics["exec.columnar_filter_ratio"] = _ratio(
        filtered, filtered + counters.get("columnar.fallback", 0)
    )
    metrics["exec.columnar_bypassed_per_op"] = per_op("columnar.bypassed")
    metrics["exec.morsels_per_op"] = per_op("exec.morsels")

    candidates = sum(s.context.metrics.index_candidates for s in shadows.values())
    if isinstance(workload, IndexProbe):
        result_rows = passes * sum(op.expect_rows or 0 for op in ops)
        metrics["indexing.build_s"] = workload.index_build_s
        metrics["indexing.logical_accesses_per_op"] = per_op("index.node_accesses.logical")
        metrics["indexing.candidates_per_result"] = _ratio(candidates, result_rows)
        metrics["indexing.query_us"] = _mean_us(
            [
                _timed(workload.strategies[op.session].query, box)[0]
                for op, box in zip(ops, workload.boxes)
            ]
        )
    if isinstance(workload, Spatial):
        joined_rows = passes * sum(op.expect_rows or 0 for op in ops if "bufferjoin" in op.text)
        metrics["spatial.candidate_pairs_per_result"] = _ratio(candidates, joined_rows)
        metrics["spatial.refine_prunes_per_op"] = per_op("spatial.refine.prunes")
        metrics["spatial.node_accesses_per_op"] = per_op("index.node_accesses.logical")
        feature_sets = [FeatureSet.from_relation(workload.db[n]) for n in workload.db]
        metrics["spatial.index_build_ms"] = (
            _timed(lambda: [fs.index() for fs in feature_sets])[0] * 1000.0
        )
    return shadows


# -- probes --------------------------------------------------------------------


def _image_probe(db: Database, workdir: Path) -> dict[str, float]:
    path = workdir / "probe-image.cdb"
    save_s, _ = _timed(save_database, db, path)
    load_s, _ = _timed(load_database, path)
    tuples = sum(len(db[name]) for name in db)
    return {
        "storage.save_ms": save_s * 1000.0,
        "storage.load_ms": load_s * 1000.0,
        "storage.image_bytes_per_tuple": path.stat().st_size / tuples,
    }


def _solver_probe(workspace: Database) -> dict[str, float | None]:
    """Direct solver calls on formulas harvested from the workload's own
    relations and results: cold (after ``clear_caches``) and warm
    satisfiability, and one-variable elimination."""
    formulas = list(
        dict.fromkeys(
            t.formula for name in workspace for t in workspace[name] if len(t.formula)
        )
    )[:PROBE_FORMULAS]
    solver.clear_caches()
    cold = [_timed(solver.is_satisfiable, f.atoms)[0] for f in formulas]
    warm = [_timed(solver.is_satisfiable, f.atoms)[0] for f in formulas]
    eliminate = [
        _timed(f.eliminate, sorted(f.variables)[:1])[0]
        for f in formulas
        if len(f.variables) > 1
    ]
    return {
        "constraints.sat_cold_us": _mean_us(cold),
        "constraints.sat_warm_us": _mean_us(warm),
        "constraints.eliminate_us": _mean_us(eliminate),
    }


def _write_probe(workload: IngestReload) -> dict[str, float]:
    """Two periods of writer cycles on a private image, alone and under a
    registry, so WAL counters are exact."""
    path = workload.workdir / "probe-write.cdb"
    save_database(workload.db, path)  # the served image: Feed at its baseline
    registry = MetricsRegistry()
    wal_bytes = []
    checkpoints = []
    with registry.activate():
        for cycle in range(2 * FEED_PERIOD):
            write_cycle(path, cycle, workload.parcel, workload.baseline)
        with open_durable(path) as durable:
            for label in ("a", "b", "c"):
                before = durable.wal.position
                with durable.begin() as txn:
                    txn.append_tuples("Feed", feed_tuples(workload.parcel, label))
                wal_bytes.append((durable.wal.position - before) / FEED_BATCH)
                checkpoints.append(_timed(durable.checkpoint)[0])
    counters = registry.snapshot()
    return {
        "storage.wal_bytes_per_tuple": statistics.median(wal_bytes),
        "storage.wal_fsyncs_per_commit": _ratio(
            counters.get("wal.fsyncs", 0), counters.get("wal.commits", 0)
        ),
        "storage.checkpoint_ms": statistics.median(checkpoints) * 1000.0,
    }


def _recovery_probe(workload: IngestReload) -> dict[str, float]:
    """Re-open a fixed un-checkpointed log and require every acknowledged
    tuple back."""
    path = workload.workdir / "probe-recovery.cdb"
    save_database(Database({"Feed": workload.baseline}), path)
    with open_durable(path) as durable:
        for n in range(RECOVERY_TRANSACTIONS):
            with durable.begin() as txn:
                txn.append_tuples("Feed", feed_tuples(workload.parcel, f"r{n}"))
    acknowledged = FEED_BATCH * (RECOVERY_TRANSACTIONS + 1)
    seconds = []
    for _ in range(RECOVERY_REOPENS):
        elapsed, durable = _timed(open_durable, path)
        with durable:
            if len(durable.database["Feed"]) != acknowledged:
                raise RuntimeError("recovery lost acknowledged tuples")
            replayed = durable.recovery.replayed_records
        seconds.append(elapsed)
    median = statistics.median(seconds)
    return {
        "recovery_ms": median * 1000.0,
        "storage.replay_records_per_s": replayed / median,
    }
