"""Figure 5 — querying one attribute: joint vs separate indexes.

Experiments 2-A (constraint attributes) and 2-B (relational attributes):
the same 10,000 boxes, but each query constrains only the ``x`` attribute;
for the joint index "the bound of the other attribute is set from minimum
to maximum".  The figure plots disk accesses against the query *length*.

Expected shape (§5.4.2): "it is better to have separate indices when
queries only use one attribute … However, this advantage is not as
significant as the advantage of joint indices when queries use both
attributes."
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
    attribute: str,
    equal_fanout: bool,
    registry: MetricsRegistry,
) -> ExperimentSeries:
    fanout = config.index_fanout(2) if equal_fanout else None
    joint = JointIndex(relation, ["x", "y"], config=config, max_entries=fanout)
    separate = SeparateIndexes(relation, ["x", "y"], config=config, max_entries=fanout)
    joint.bind_registry(registry)
    separate.bind_registry(registry)
    series = ExperimentSeries(label, x_label="query length")
    with registry.timed(f"experiments.fig5.{label}"):
        for query in queries:
            box = rectangles.query_box_one_attribute(query, attribute)
            joint.reset_counters()
            separate.reset_counters()
            joint_hits, joint_accesses = measured_query(registry, "joint", joint, box)
            separate_hits, separate_accesses = measured_query(
                registry, "separate", separate, box
            )
            check_consistency(joint_hits, separate_hits)
            length = query.width if attribute == "x" else query.height
            series.measurements.append(
                QueryMeasurement(
                    x_value=length,
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
    query_seed: int = 5404,
    config: PageConfig | None = None,
    attribute: str = "x",
    equal_fanout: bool = True,
) -> ExperimentResult:
    """Run both Figure 5 panels and return the measured series."""
    config = config or PageConfig()
    registry = MetricsRegistry()
    data = rectangles.generate_data(data_size, data_seed)
    queries = rectangles.generate_queries(query_count, query_seed)
    constraint_rel = rectangles.build_constraint_relation(data)
    relational_rel = rectangles.build_relational_relation(data)
    return ExperimentResult(
        experiment_id="figure-5",
        title="Querying one attribute: disk accesses vs query length",
        series=[
            _measure_variant(
                "expt 2-A (constraint attributes)",
                constraint_rel,
                queries,
                config,
                attribute,
                equal_fanout,
                registry,
            ),
            _measure_variant(
                "expt 2-B (relational attributes)",
                relational_rel,
                queries,
                config,
                attribute,
                equal_fanout,
                registry,
            ),
        ],
        notes=(
            f"{data_size} data boxes, {query_count} single-attribute ({attribute}) queries; "
            f"page size {config.page_size}B"
        ),
        metrics=registry.snapshot(),
    )


def main() -> None:  # pragma: no cover - exercised via examples/benches
    from .runner import print_result

    print_result(run())


if __name__ == "__main__":  # pragma: no cover
    main()
