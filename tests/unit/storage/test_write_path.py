"""Unit tests for the mutation path: relation append, its columnar
cache, and columnar selection across WAL commits and recovery (the
stale-summary-block regression suite)."""

from repro.constraints import parse_constraints
from repro.exec import columnar
from repro.exec.columnar import block_for
from repro.model.database import Database
from repro.model.relation import ConstraintRelation
from repro.model.schema import Attribute, Schema
from repro.model.tuples import HTuple, point_tuple
from repro.model.types import AttributeKind, DataType
from repro.obs import COLUMNAR_BATCHES
from repro.query import QuerySession
from repro.storage import open_durable, save_database


def make_schema():
    return Schema(
        [
            Attribute("id", DataType.STRING, AttributeKind.RELATIONAL),
            Attribute("x", DataType.RATIONAL, AttributeKind.CONSTRAINT),
        ]
    )


def tuples_for(schema, ids):
    return [point_tuple(schema, {"id": i, "x": n}) for n, i in enumerate(ids)]


class TestStaleCacheRegression:
    """A columnar summary block built before a write must never describe
    post-write tuples: a write builds a new relation with an empty cache."""

    def test_relation_extended_gets_fresh_columnar_cache(self):
        schema = make_schema()
        relation = ConstraintRelation(schema, tuples_for(schema, ["a"]), "R")
        block = block_for(relation.tuples, ("x",), relation.columnar_cache())
        assert len(block) == 1
        grown = relation.extended(tuples_for(schema, ["b"]))
        # The old relation keeps its valid cache; the new one starts empty.
        assert ("x",) in relation.columnar_cache()
        assert ("x",) not in grown.columnar_cache()
        grown_block = block_for(grown.tuples, ("x",), grown.columnar_cache())
        assert len(grown_block) == 2

    def test_extended_applies_set_semantics(self):
        schema = make_schema()
        relation = ConstraintRelation(schema, tuples_for(schema, ["a"]), "R")
        grown = relation.extended(tuples_for(schema, ["a"]))  # duplicate
        assert len(grown) == 1


class TestColumnarAcrossWal:
    """A columnar select warms the base relation's summary-block cache;
    a committed WAL append and a recovery replay must both be visible to
    later columnar selects, with results equal to the row path."""

    QUERY = "hits = select x >= 20, x <= 200 from boxes"

    @staticmethod
    def boxes(prefix, lows):
        schema = Schema(
            [
                Attribute("id", DataType.STRING, AttributeKind.RELATIONAL),
                Attribute("x", DataType.RATIONAL, AttributeKind.CONSTRAINT),
                Attribute("y", DataType.RATIONAL, AttributeKind.CONSTRAINT),
            ]
        )
        return [
            HTuple(
                schema,
                {"id": f"{prefix}{i}"},
                parse_constraints(f"{lo} <= x, x <= {lo + 2}, 0 <= y, y <= 10"),
            )
            for i, lo in enumerate(lows)
        ]

    def select(self, database, exec_mode):
        with QuerySession(database, exec_mode=exec_mode) as session:
            result = session.execute(self.QUERY)
            batches = session.registry.value(COLUMNAR_BATCHES)
        return result, batches

    def check(self, database, new_ids):
        result, batches = self.select(database, "columnar")
        row, _ = self.select(database, "row")
        assert new_ids <= {t.values["id"] for t in result}
        assert list(result.tuples) == list(row.tuples)
        assert batches > 0

    def test_append_and_recovery_seen_by_columnar_select(self, tmp_path):
        base = self.boxes("b", range(0, 80, 2))
        assert len(base) >= columnar.MIN_BATCH
        path = tmp_path / "boxes.cdb"
        save_database(
            Database({"boxes": ConstraintRelation(base[0].schema, base, "boxes")}), path
        )
        appended = self.boxes("new", range(100, 105))
        new_ids = {t.values["id"] for t in appended}
        with open_durable(path, fsync=False) as durable:
            warm, batches = self.select(durable.database, "columnar")
            assert batches > 0 and durable.database["boxes"].columnar_cache()
            assert not new_ids & {t.values["id"] for t in warm}
            with durable.begin() as txn:
                txn.append_tuples("boxes", appended)
            self.check(durable.database, new_ids)
        with open_durable(path, fsync=False) as recovered:
            assert recovered.recovery.replayed_records == 1
            self.check(recovered.database, new_ids)
