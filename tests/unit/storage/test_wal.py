"""Unit tests for the write-ahead log and the durable database."""

import os

import pytest

from repro.errors import CorruptPageError, SchemaError, StorageError
from repro.model.relation import ConstraintRelation
from repro.model.schema import Attribute, Schema
from repro.model.tuples import point_tuple
from repro.model.types import AttributeKind, DataType
from repro.obs import (
    WAL_APPENDS,
    WAL_CHECKPOINTS,
    WAL_COMMITS,
    WAL_REPLAYED,
    MetricsRegistry,
)
from repro.storage import dumps, load_database
from repro.storage.wal import (
    MAGIC,
    WalRecord,
    WriteAheadLog,
    atomic_write_text,
    committed_transactions,
    decode_payload,
    encode_record,
    iter_log_records,
    open_durable,
    scan_log_bytes,
    wal_path_for,
)


def make_schema():
    return Schema(
        [
            Attribute("id", DataType.STRING, AttributeKind.RELATIONAL),
            Attribute("x", DataType.RATIONAL, AttributeKind.CONSTRAINT),
        ]
    )


def make_relation(schema, ids):
    return ConstraintRelation(
        schema, [point_tuple(schema, {"id": i, "x": n}) for n, i in enumerate(ids)], "R"
    )


class TestRecordCodec:
    def test_roundtrip(self):
        record = WalRecord("put", 7, relation="R", schema=(("id", "string", "relational"),), rows=('id="a"',))
        framed = encode_record(record)
        recovery = scan_log_bytes(MAGIC + framed)
        assert recovery.records == (record,)
        assert recovery.truncated_bytes == 0

    def test_unknown_op_rejected(self):
        with pytest.raises(StorageError):
            WalRecord("merge", 1)

    def test_op_needs_relation(self):
        with pytest.raises(StorageError):
            WalRecord("put", 1)

    def test_payload_must_be_object(self):
        with pytest.raises(CorruptPageError):
            decode_payload(b"[1, 2]")

    def test_payload_must_be_json(self):
        with pytest.raises(CorruptPageError):
            decode_payload(b"\xff\xfe not json")


class TestStructuralRecovery:
    def test_empty_log(self):
        assert scan_log_bytes(b"") == scan_log_bytes(b"")
        assert scan_log_bytes(b"").records == ()

    def test_torn_magic_is_truncation(self):
        recovery = scan_log_bytes(MAGIC[:3])
        assert recovery.truncated_bytes == 3
        assert recovery.records == ()

    def test_wrong_magic_is_corruption(self):
        with pytest.raises(CorruptPageError, match="header"):
            scan_log_bytes(b"NOTAWAL0" + b"junk")

    def test_torn_record_reported_not_raised(self):
        framed = encode_record(WalRecord("begin", 1))
        data = MAGIC + framed[:-2]
        recovery = scan_log_bytes(data)
        assert recovery.records == ()
        assert recovery.truncated_bytes == len(framed) - 2

    def test_crc_mismatch_is_corruption(self):
        framed = bytearray(encode_record(WalRecord("begin", 1)))
        framed[-1] ^= 0xFF  # flip a payload bit; lengths stay intact
        with pytest.raises(CorruptPageError, match="CRC32"):
            scan_log_bytes(MAGIC + bytes(framed))

    def test_valid_prefix_survives_torn_tail(self):
        good = encode_record(WalRecord("begin", 1))
        torn = encode_record(WalRecord("commit", 1))[:-1]
        recovery = scan_log_bytes(MAGIC + good + torn)
        assert [r.op for r in recovery.records] == ["begin"]
        assert recovery.truncated_bytes == len(torn)


class TestWriteAheadLog:
    def test_open_creates_header(self, tmp_path):
        path = tmp_path / "db.wal"
        with WriteAheadLog(path) as log:
            assert log.position == len(MAGIC)
        assert path.read_bytes() == MAGIC

    def test_append_and_reopen(self, tmp_path):
        path = tmp_path / "db.wal"
        with WriteAheadLog(path) as log:
            log.append(WalRecord("begin", 1))
            log.append(WalRecord("commit", 1))
            log.sync()
        with WriteAheadLog(path) as log:
            assert [r.op for r in log.records] == ["begin", "commit"]

    def test_open_truncates_torn_tail(self, tmp_path):
        path = tmp_path / "db.wal"
        with WriteAheadLog(path) as log:
            log.append(WalRecord("begin", 1))
            log.sync()
        size = path.stat().st_size
        with open(path, "ab") as handle:
            handle.write(encode_record(WalRecord("commit", 1))[:-4])
        with WriteAheadLog(path) as log:
            assert [r.op for r in log.records] == ["begin"]
            assert log.truncated_bytes > 0
        assert path.stat().st_size == size  # tail physically gone

    def test_append_after_close_rejected(self, tmp_path):
        log = WriteAheadLog(tmp_path / "db.wal")
        log.close()
        with pytest.raises(StorageError, match="closed"):
            log.append(WalRecord("begin", 1))

    def test_reset_leaves_bare_header(self, tmp_path):
        path = tmp_path / "db.wal"
        with WriteAheadLog(path) as log:
            log.append(WalRecord("begin", 1))
            log.reset()
            assert log.records == ()
            log.append(WalRecord("begin", 2))  # still appendable after reset
            log.sync()
        assert [r.txn for r in iter_log_records(path)] == [2]


class TestCommittedTransactions:
    def test_uncommitted_txn_dropped(self):
        records = [
            WalRecord("begin", 1),
            WalRecord("drop", 1, relation="R"),
            WalRecord("begin", 2),
            WalRecord("drop", 2, relation="S"),
            WalRecord("commit", 2),
        ]
        committed = committed_transactions(records)
        assert len(committed) == 1
        assert committed[0][0].relation == "S"

    def test_commit_order_preserved(self):
        records = [
            WalRecord("begin", 1),
            WalRecord("begin", 2),
            WalRecord("drop", 2, relation="A"),
            WalRecord("commit", 2),
            WalRecord("drop", 1, relation="B"),
            WalRecord("commit", 1),
        ]
        committed = committed_transactions(records)
        assert [t[0].relation for t in committed] == ["A", "B"]


class TestDurableDatabase:
    def test_put_append_drop_roundtrip(self, tmp_path):
        schema = make_schema()
        path = tmp_path / "db.cdb"
        with open_durable(path, fsync=False) as d:
            with d.begin() as txn:
                txn.put_relation("R", make_relation(schema, ["a"]))
            with d.begin() as txn:
                txn.append_tuples("R", [point_tuple(schema, {"id": "b", "x": 9})])
            state = dumps(d.database)
        with open_durable(path, fsync=False) as d:
            assert dumps(d.database) == state
            assert len(d.database["R"]) == 2
            assert d.recovery.committed_transactions == 2

    def test_abort_rolls_back(self, tmp_path):
        schema = make_schema()
        path = tmp_path / "db.cdb"
        with open_durable(path, fsync=False) as d:
            with d.begin() as txn:
                txn.put_relation("R", make_relation(schema, ["a"]))
            with pytest.raises(RuntimeError):
                with d.begin() as txn:
                    txn.put_relation("S", make_relation(schema, ["x"]))
                    raise RuntimeError("client bug mid-transaction")
            assert "S" not in d.database  # never applied in memory either
        with open_durable(path, fsync=False) as d:
            assert d.database.names() == ("R",)
            assert d.recovery.rolled_back_transactions == 1

    def test_commit_publishes_fresh_catalog(self, tmp_path):
        schema = make_schema()
        with open_durable(tmp_path / "db.cdb", fsync=False) as d:
            with d.begin() as txn:
                txn.put_relation("R", make_relation(schema, ["a"]))
            before = d.database
            with d.begin() as txn:
                txn.append_tuples("R", [point_tuple(schema, {"id": "b", "x": 9})])
            # A reader pinned to the old catalog keeps its old view.
            assert len(before["R"]) == 1
            assert len(d.database["R"]) == 2
            assert d.database is not before

    def test_append_validates_schema(self, tmp_path):
        schema = make_schema()
        other = Schema([Attribute("y", DataType.RATIONAL, AttributeKind.CONSTRAINT)])
        with open_durable(tmp_path / "db.cdb", fsync=False) as d:
            with d.begin() as txn:
                txn.put_relation("R", make_relation(schema, ["a"]))
            with pytest.raises((StorageError, RuntimeError)):
                with d.begin() as txn:
                    txn.append_tuples("R", [point_tuple(other, {"y": 1})])

    def test_append_to_missing_relation_fails_before_logging(self, tmp_path):
        schema = make_schema()
        with open_durable(tmp_path / "db.cdb", fsync=False) as d:
            with pytest.raises(SchemaError):
                with d.begin() as txn:
                    txn.append_tuples("Nope", [point_tuple(schema, {"id": "a", "x": 1})])

    def test_checkpoint_folds_and_resets(self, tmp_path):
        schema = make_schema()
        path = tmp_path / "db.cdb"
        with open_durable(path, fsync=False) as d:
            with d.begin() as txn:
                txn.put_relation("R", make_relation(schema, ["a", "b"]))
            d.checkpoint()
        assert wal_path_for(path).read_bytes() == MAGIC
        assert len(load_database(path)["R"]) == 2
        with open_durable(path, fsync=False) as d:
            assert d.recovery.records == 0
            assert len(d.database["R"]) == 2

    def test_txn_ids_resume_past_history(self, tmp_path):
        schema = make_schema()
        path = tmp_path / "db.cdb"
        with open_durable(path, fsync=False) as d:
            with d.begin() as txn:
                txn.put_relation("R", make_relation(schema, ["a"]))
        with open_durable(path, fsync=False) as d:
            txn = d.begin()
            assert txn._txn >= 2
            txn.commit()

    def test_counters_flow_through_registry(self, tmp_path):
        schema = make_schema()
        registry = MetricsRegistry()
        path = tmp_path / "db.cdb"
        with registry.activate():
            with open_durable(path, fsync=False) as d:
                with d.begin() as txn:
                    txn.put_relation("R", make_relation(schema, ["a"]))
                d.checkpoint()
        assert registry.value(WAL_APPENDS) >= 3  # begin, put, commit
        assert registry.value(WAL_COMMITS) == 1
        assert registry.value(WAL_CHECKPOINTS) == 1
        replay_registry = MetricsRegistry()
        with replay_registry.activate():
            with open_durable(path, fsync=False) as d:
                with d.begin() as txn:
                    txn.drop_relation("R")
            with open_durable(path, fsync=False) as d:
                assert d.database.names() == ()
        assert replay_registry.value(WAL_REPLAYED) == 1


class TestAtomicWrite:
    def test_replaces_contents(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("old")
        atomic_write_text(path, "new")
        assert path.read_text() == "new"
        assert not (tmp_path / "f.txt.tmp").exists()

    def test_creates_fresh_file(self, tmp_path):
        path = tmp_path / "f.txt"
        atomic_write_text(path, "hello")
        assert path.read_text() == "hello"
