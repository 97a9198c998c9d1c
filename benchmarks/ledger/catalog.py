"""The ledger's catalogue: workload names, metric names, units, bounds.

``BENCHMARK.json`` at the repository root records the same lists for the
driver; ``test_ledger.py`` asserts the two agree.  Names are fixed — later
issues cite them — so a rename here is a benchmark change of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

#: (name, why) — the order is the order ``run.py`` runs them in.
WORKLOADS: tuple[tuple[str, str], ...] = (
    (
        "hurricane_1c",
        "1 client, the paper's five 3.3 scripts over 4 seeded hurricane tracks: join, "
        "project (FM elimination) and difference dominate; the solver- and algebra-bound workload",
    ),
    (
        "hurricane_2c",
        "same statements split over 2 clients on 2 tenants: GIL switching, solver-cache lock and "
        "executor contention; a solver gain that adds locking shows here, not in hurricane_1c",
    ),
    (
        "point_1c",
        "1 client, 8 relational-equality point selects plus ping: frame codec, parse, compile, "
        "optimize, render and the loop/executor hop are most of the latency; the solver idles",
    ),
    (
        "boxscan_1c",
        "1 client, 40 selective 1- and 2-attribute box selects over 400 boxes, no index: pure "
        "scan-filter, where row-vs-columnar is decided; joins and FM are bypassed",
    ),
    (
        "spatial_1c",
        "1 client, two bufferjoins and 10 knearest on a generated town map: feature R*-tree "
        "filter plus exact distance refine; bypasses join/FM and the scan path",
    ),
    (
        "index_probe",
        "in-process sessions over 1500 boxes, joint and separate R*-trees sharing a 32-page "
        "pool smaller than the trees: the paper's section 5 experiment as a latency workload",
    ),
    (
        "ingest_reload",
        "a writer commits fsynced 10-tuple WAL transactions and hot-reloads the server while a "
        "reader loops the point selects: what writes cost reads",
    ),
)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: End-to-end only: the share of the parent's median by which the
    #: metric may worsen before a change counts as a regression.
    bound: float | None = None


#: Client-visible metrics, reported by every workload's untraced run.
END_TO_END: tuple[Metric, ...] = (
    Metric("ops_per_s", "1/s", "higher", 0.25),
    Metric("op_p50_ms", "ms", "lower", 0.25),
    Metric("op_p95_ms", "ms", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
    Metric("setup_s", "s", "lower", 0.25),
)

_OPERATOR_KINDS = (
    "scan",
    "select",
    "project",
    "join",
    "difference",
    "indexscan",
    "bufferjoin",
    "knearest",
)


def _lower(unit: str, *names: str) -> tuple[Metric, ...]:
    return tuple(Metric(name, unit, "lower") for name in names)


def _higher(unit: str, *names: str) -> tuple[Metric, ...]:
    return tuple(Metric(name, unit, "higher") for name in names)


#: Single-layer metrics, reported by the traced run (layer = module name).
#: The first five are client-visible metrics that exist on one workload
#: only (or are exactly 0 when healthy), which the driver's "every metric
#: on every workload, never 0" rule cannot hold a bound for; see README.
PER_LAYER: tuple[Metric, ...] = (
    *_lower("ratio", "failed_ratio"),
    *_lower("count", "disk_accesses_per_op"),
    *_lower("ms", "commit_p50_ms", "reload_p50_ms", "recovery_ms"),
    # server
    *_lower("ms", "server.ping_ms", "server.overhead_ms"),
    *_lower("us", "server.codec_us", "server.render_us"),
    *_lower("count", "server.shed", "server.replies_error"),
    # query / analysis / optimizer front end
    *_lower("us", "query.parse_us", "query.compile_us", "algebra.optimize_us"),
    *_lower("us", "analysis.analyze_us"),
    # algebra
    *_lower("ms", "algebra.evaluate_ms"),
    *_lower("count", "algebra.tuples_produced_per_op"),
    *_lower("ms", *(f"algebra.op.{kind}.self_ms" for kind in _OPERATOR_KINDS)),
    # constraints
    *_lower("count", "constraints.sat_requests_per_op", "constraints.full_solves_per_op"),
    *_higher("ratio", "constraints.cache_hit_ratio"),
    *_lower("count", "constraints.cache_evictions"),
    *_higher("ratio", "constraints.fastpath_ratio"),
    *_lower("count", "constraints.fm_steps_per_op", "constraints.simplex_calls_per_op"),
    *_lower("us", "constraints.sat_cold_us", "constraints.sat_warm_us", "constraints.eliminate_us"),
    # exec
    *_higher("count", "exec.columnar_batches_per_op"),
    *_higher("ratio", "exec.columnar_filter_ratio"),
    *_lower("count", "exec.columnar_bypassed_per_op"),
    *_higher("count", "exec.morsels_per_op"),
    # indexing
    *_lower("s", "indexing.build_s"),
    *_lower("us", "indexing.query_us"),
    *_lower("count", "indexing.logical_accesses_per_op"),
    *_lower("ratio", "indexing.candidates_per_result"),
    # storage
    *_higher("ratio", "storage.pool_hit_ratio"),
    *_lower("count", "storage.pool_evictions_per_op"),
    *_lower("ms", "storage.load_ms", "storage.save_ms"),
    *_lower("B", "storage.image_bytes_per_tuple", "storage.wal_bytes_per_tuple"),
    *_lower("count", "storage.wal_fsyncs_per_commit"),
    *_lower("ms", "storage.checkpoint_ms"),
    *_higher("1/s", "storage.replay_records_per_s"),
    # spatial
    *_lower("ratio", "spatial.candidate_pairs_per_result"),
    *_higher("count", "spatial.refine_prunes_per_op"),
    *_lower("count", "spatial.node_accesses_per_op"),
    *_lower("ms", "spatial.index_build_ms"),
    # the trace itself
    *_higher("ratio", "trace.coverage"),
    *_lower("ratio", "trace.evaluate_share", "trace.overhead_ratio"),
)

WORKLOAD_NAMES = tuple(name for name, _ in WORKLOADS)


def manifest(command: list[str], paths: list[str], run_seconds: int) -> dict:
    """The ``BENCHMARK.json`` document for this catalogue."""
    return {
        "command": command,
        "paths": paths,
        "run_seconds": run_seconds,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
