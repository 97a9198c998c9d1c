"""Figure 4 — querying both attributes: joint vs separate indexes.

Experiments 1-A (both attributes constraint) and 1-B (both relational):
10,000 random boxes, 100 rectangle queries over *both* attributes; the
figure plots disk accesses against the query rectangle's area.

Expected shape (§5.4.1): "for both relational and constraint attributes,
if the query involves both of the attributes, it is more efficient to have
them stored in the same index structure", with (1) the joint advantage
larger for constraint attributes at small query areas and (2) the joint
index's access count depending far less on query area.
"""

from __future__ import annotations

from ..indexing.strategy import JointIndex, SeparateIndexes
from ..model.relation import ConstraintRelation
from ..obs import MetricsRegistry
from ..storage.pages import PageConfig
from ..workloads import rectangles
from .runner import (
    ExperimentResult,
    ExperimentSeries,
    QueryMeasurement,
    check_consistency,
    measured_query,
)


def _measure_variant(
    label: str,
    relation: ConstraintRelation,
    queries: list[rectangles.Rect],
    config: PageConfig,
    equal_fanout: bool,
    registry: MetricsRegistry,
) -> ExperimentSeries:
    # The paper's trees share one branching factor; byte-packed pages would
    # give the 1-D trees ~70% more fanout, overstating the separate
    # strategy everywhere (kept as an ablation via equal_fanout=False).
    fanout = config.index_fanout(2) if equal_fanout else None
    joint = JointIndex(relation, ["x", "y"], config=config, max_entries=fanout)
    separate = SeparateIndexes(relation, ["x", "y"], config=config, max_entries=fanout)
    # Per-query accesses come from the registry's scoped counters — the
    # observability layer the paper's figures now read — with the trees'
    # own counters reset per query under the cascading reset contract.
    joint.bind_registry(registry)
    separate.bind_registry(registry)
    series = ExperimentSeries(label, x_label="query area")
    with registry.timed(f"experiments.fig4.{label}"):
        for query in queries:
            box = rectangles.query_box_two_attributes(query)
            joint.reset_counters()
            separate.reset_counters()
            joint_hits, joint_accesses = measured_query(registry, "joint", joint, box)
            separate_hits, separate_accesses = measured_query(
                registry, "separate", separate, box
            )
            check_consistency(joint_hits, separate_hits)
            series.measurements.append(
                QueryMeasurement(
                    x_value=query.area,
                    joint_accesses=joint_accesses,
                    separate_accesses=separate_accesses,
                    result_count=len(joint_hits),
                )
            )
    return series


def run(
    data_size: int = rectangles.DATA_SIZE,
    query_count: int = rectangles.QUERY_COUNT,
    data_seed: int = 54,
    query_seed: int = 5403,
    config: PageConfig | None = None,
    equal_fanout: bool = True,
) -> ExperimentResult:
    """Run both Figure 4 panels and return the measured series."""
    config = config or PageConfig()
    registry = MetricsRegistry()
    data = rectangles.generate_data(data_size, data_seed)
    queries = rectangles.generate_queries(query_count, query_seed)
    constraint_rel = rectangles.build_constraint_relation(data)
    relational_rel = rectangles.build_relational_relation(data)
    return ExperimentResult(
        experiment_id="figure-4",
        title="Querying both attributes: disk accesses vs query area",
        series=[
            _measure_variant(
                "expt 1-A (constraint attributes)",
                constraint_rel,
                queries,
                config,
                equal_fanout,
                registry,
            ),
            _measure_variant(
                "expt 1-B (relational attributes)",
                relational_rel,
                queries,
                config,
                equal_fanout,
                registry,
            ),
        ],
        notes=(
            f"{data_size} data boxes, {query_count} rectangle queries; "
            f"page size {config.page_size}B, fanout {config.index_fanout(2)}"
            + ("" if equal_fanout else f" (2-D) / {config.index_fanout(1)} (1-D)")
        ),
        metrics=registry.snapshot(),
    )


def main() -> None:  # pragma: no cover - exercised via examples/benches
    from .runner import print_result

    print_result(run())


if __name__ == "__main__":  # pragma: no cover
    main()
