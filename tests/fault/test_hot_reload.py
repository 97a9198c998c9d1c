"""Hot reload under live traffic: zero torn reads.

Eight client threads hammer the server with selects over a relation
whose every tuple carries the image's version marker (``v1`` in the old
file, ``v2`` in the new) while the main thread repeatedly rewrites the
source file and triggers ``reload``.  The acceptance condition: every
single reply is served entirely from one snapshot — its text mentions
one version marker, never both — and both versions are actually observed
(the swap really happened under load).
"""

from __future__ import annotations

import threading

import pytest

from repro.server import ServerConfig
from repro.server.harness import ServerThread
from repro.storage.wal import atomic_write_text, open_durable

CLIENTS = 8
#: Each reader's minimum; readers keep querying until every reload is
#: done, so no reader can finish before the first swap publishes ``v2``.
QUERIES_PER_CLIENT = 30
RELOADS = 12


def image_text(version: str) -> str:
    lines = ["# CQA/CDB database file", "relation R"]
    lines.append("attribute id string relational")
    lines.append("attribute x rational constraint")
    tuple_lines = [
        f'tuple id="{version}-{i}" | {i} <= x, x <= {i + 1}' for i in range(4)
    ]
    lines.extend(tuple_lines)
    import zlib

    crc = zlib.crc32("\n".join(tuple_lines).encode()) & 0xFFFFFFFF
    lines.append(f"checksum {len(tuple_lines)} {crc:08x}")
    lines.append("end")
    return "\n".join(lines) + "\n"


@pytest.mark.timeout(120)
def test_reload_under_concurrent_clients_serves_no_torn_reads(tmp_path):
    path = tmp_path / "db.cdb"
    path.write_text(image_text("v1"))
    with open_durable(path) as durable:
        database = durable.database

    torn: list[str] = []
    seen_versions: set[str] = set()
    errors: list[str] = []
    stop = threading.Event()
    lock = threading.Lock()

    with ServerThread(
        database, ServerConfig(workers=4, max_queue=64), source=path
    ) as harness:

        def reader(n: int) -> None:
            try:
                with harness.client(tenant=f"reader-{n}") as client:
                    done = 0
                    while done < QUERIES_PER_CLIENT or not stop.is_set():
                        done += 1
                        reply = client.query("X = select x >= 0 from R", limit=50)
                        if not reply.get("ok"):
                            with lock:
                                errors.append(str(reply.get("error")))
                            continue
                        text = reply["result"]["text"]
                        has_v1 = "v1-" in text
                        has_v2 = "v2-" in text
                        with lock:
                            if has_v1:
                                seen_versions.add("v1")
                            if has_v2:
                                seen_versions.add("v2")
                            if has_v1 and has_v2:
                                torn.append(text)
                            if not has_v1 and not has_v2:
                                errors.append(f"versionless reply: {text!r}")
            except Exception as exc:  # surfaced via the errors list
                with lock:
                    errors.append(f"reader {n}: {exc!r}")

        threads = [
            threading.Thread(target=reader, args=(n,), name=f"reload-reader-{n}")
            for n in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        try:
            with harness.client() as control:
                for round_no in range(RELOADS):
                    version = "v2" if round_no % 2 == 0 else "v1"
                    atomic_write_text(path, image_text(version))
                    reply = control.reload()
                    # A concurrent SIGHUP-style reload could 503; the only
                    # acceptable non-ok reply is the structured 'reloading'.
                    if not reply.get("ok"):
                        assert reply["error"]["kind"] == "reloading", reply
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=60)
        stats = harness.client().stats()

    assert not torn, f"torn replies mixing two snapshots: {torn[:2]}"
    assert not errors, f"reader errors: {errors[:5]}"
    assert seen_versions == {"v1", "v2"}, (
        f"both snapshot versions should be observed under load, saw {seen_versions}"
    )
    assert stats["counters"]["server.reload.count"] >= 1
    assert stats["counters"]["server.reload.retired_sessions"] >= 1


@pytest.mark.timeout(60)
def test_reload_resets_tenant_bindings(tmp_path):
    """Documented contract: a reload retires sessions, so multi-step
    bindings (``R0`` from an earlier statement) are dropped."""
    path = tmp_path / "db.cdb"
    path.write_text(image_text("v1"))
    with open_durable(path) as durable:
        database = durable.database
    with ServerThread(database, ServerConfig(workers=2), source=path) as harness:
        with harness.client(tenant="t") as client:
            client.execute("B0 = select x >= 0 from R")
            assert client.execute("B1 = select x >= 1 from B0")["rows"] >= 1
            assert client.reload()["ok"]
            reply = client.query("B2 = select x >= 2 from B0")  # B0 is gone
            assert not reply["ok"]
            assert reply["status"] == 400


@pytest.mark.timeout(60)
def test_reload_without_source_is_a_protocol_error(tmp_path):
    path = tmp_path / "db.cdb"
    path.write_text(image_text("v1"))
    with open_durable(path) as durable:
        database = durable.database
    with ServerThread(database, ServerConfig(workers=1)) as harness:  # no source
        with harness.client() as client:
            reply = client.reload()
            assert not reply["ok"]
            assert reply["error"]["kind"] == "protocol_error"


@pytest.mark.timeout(60)
def test_reload_recovers_wal_content(tmp_path):
    """A reload picks up transactions committed through the WAL (the
    ``repro ingest`` → ``SIGHUP`` workflow) without a checkpoint."""
    from repro.model.relation import ConstraintRelation
    from repro.model.schema import Attribute, Schema
    from repro.model.tuples import point_tuple
    from repro.model.types import AttributeKind, DataType

    path = tmp_path / "db.cdb"
    path.write_text(image_text("v1"))
    with open_durable(path) as durable:
        database = durable.database
    with ServerThread(database, ServerConfig(workers=1), source=path) as harness:
        with harness.client() as client:
            schema = Schema(
                [
                    Attribute("id", DataType.STRING, AttributeKind.RELATIONAL),
                    Attribute("x", DataType.RATIONAL, AttributeKind.CONSTRAINT),
                ]
            )
            with open_durable(path) as writer:
                with writer.begin() as txn:
                    txn.put_relation(
                        "Extra",
                        ConstraintRelation(
                            schema, [point_tuple(schema, {"id": "w", "x": 5})], "Extra"
                        ),
                    )
            reply = client.reload()
            assert reply["ok"] and "Extra" in reply["relations"]
            assert reply["recovery"]["committed_transactions"] == 1
            assert client.execute("Y = select x >= 5 from Extra")["rows"] == 1
