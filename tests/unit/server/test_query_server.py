"""Unit tests for the multi-tenant query server (happy paths, tenancy,
budgets, metrics).  The failure-mode suite — disconnects, shedding,
drain — lives in ``tests/fault/test_server_faults.py``."""

import pytest

from repro.constraints import parse_constraints
from repro.model import ConstraintRelation, Database, HTuple, Schema, constraint, relational
from repro.obs import SERVER_EXHAUSTED, SERVER_REPLIES_OK, SERVER_REQUESTS
from repro.server import ServerConfig, ServerReplyError, ServerThread


@pytest.fixture(scope="module")
def database() -> Database:
    s = Schema([relational("id"), constraint("t")])
    r = ConstraintRelation(
        s,
        [
            HTuple(s, {"id": "a"}, parse_constraints("0 <= t, t <= 10")),
            HTuple(s, {"id": "b"}, parse_constraints("5 <= t, t <= 20")),
            HTuple(s, {"id": "c"}, parse_constraints("15 <= t, t <= 30")),
        ],
        "R",
    )
    return Database({"R": r})


@pytest.fixture(scope="module")
def harness(database):
    with ServerThread(database, ServerConfig(workers=2, max_queue=4)) as h:
        yield h


class TestBasicOps:
    def test_ping(self, harness):
        reply = harness.client().ping()
        assert reply["ok"] and reply["pong"] and not reply["draining"]

    def test_query_returns_result_payload(self, harness):
        with harness.client(tenant="basic") as client:
            result = client.execute("R0 = select t >= 15 from R")
        assert result["target"] == "R0"
        assert result["rows"] == 2
        assert result["truncated"] is False
        assert "R0" in result["text"]

    def test_unknown_op_is_protocol_error(self, harness):
        with harness.client() as client:
            reply = client.request({"op": "frobnicate"})
        assert not reply["ok"]
        assert reply["status"] == 400
        assert reply["error"]["kind"] == "protocol_error"

    def test_missing_statement_is_protocol_error(self, harness):
        with harness.client() as client:
            reply = client.request({"op": "query", "tenant": "basic"})
        assert reply["status"] == 400
        assert reply["error"]["kind"] == "protocol_error"

    def test_parse_error_is_structured_400(self, harness):
        with harness.client(tenant="basic") as client:
            reply = client.query("R0 = selec t >= 15 from R")
        assert reply["status"] == 400
        assert reply["error"]["kind"] == "parse_error"
        assert "Traceback" not in reply["error"]["message"]

    def test_request_id_is_echoed(self, harness):
        with harness.client() as client:
            reply = client.request({"op": "ping", "id": "my-id-42"})
        assert reply["id"] == "my-id-42"


class TestTransport:
    def test_accepted_connection_reads_below_the_mmap_threshold(self, harness):
        # A recv buffer of 128 KiB or more is served by mmap in glibc, so
        # every frame would pay mmap + page faults + munmap.
        async def read_sizes():
            return [writer.transport.max_size for writer in harness.server._writers]

        with harness.client(tenant="transport") as client:
            assert client.ping()["ok"]
            sizes = harness.run_coro(read_sizes())
        assert sizes
        assert all(size < 128 * 1024 for size in sizes)


class TestTenancy:
    def test_bindings_persist_per_tenant(self, harness):
        with harness.client(tenant="alice") as client:
            client.execute("R0 = select t >= 15 from R")
            result = client.execute("R1 = project R0 on id")
        assert result["rows"] == 2

    def test_tenants_are_isolated(self, harness):
        with harness.client(tenant="bob") as bob:
            bob.execute("Priv = select t >= 15 from R")
            with harness.client(tenant="carol") as carol:
                reply = carol.query("X = project Priv on id")
        assert not reply["ok"]
        assert reply["error"]["kind"] == "query_error"

    def test_script_spans_requests(self, harness):
        with harness.client(tenant="script") as client:
            result = client.run_script(
                "R0 = select t >= 5 from R\n# comment\nR1 = project R0 on id\n"
            )
        assert result["target"] == "R1"

    def test_stats_reports_tenants(self, harness):
        with harness.client(tenant="statst") as client:
            client.execute("R0 = select t >= 15 from R")
            stats = client.stats()
        assert stats["ok"]
        assert stats["tenants"]["statst"]["queries"] >= 1
        assert stats["counters"][SERVER_REQUESTS] > 0
        assert stats["counters"][SERVER_REPLIES_OK] > 0
        # Engine counters merged through the same pipeline: the solver
        # work done inside tenant sessions shows up server-side.
        assert stats["counters"].get("solver.requests", 0) > 0


class TestBudgets:
    def test_request_budget_exhaustion_is_429(self, harness):
        with harness.client(tenant="tight") as client:
            reply = client.query("J = join R and R", budget={"output_tuples": 1})
        assert reply["status"] == 429
        assert reply["error"]["kind"] == "output_limit_exceeded"
        assert reply["error"]["resource"] == "output_tuples"
        assert reply["error"]["consumed"] > reply["error"]["limit"]
        assert harness.counter(SERVER_EXHAUSTED) >= 1

    def test_partial_mode_returns_truncated_prefix(self, harness):
        with harness.client(tenant="partial") as client:
            result = client.execute(
                "J = join R and R",
                budget={"output_tuples": 1, "on_exhausted": "partial"},
            )
        assert result["truncated"] is True
        assert result["rows"] == 1
        assert result["exhausted"]["limit.output_tuples"] == 1

    def test_session_stays_usable_after_exhaustion(self, harness):
        with harness.client(tenant="resilient") as client:
            with pytest.raises(ServerReplyError) as excinfo:
                client.execute("J = join R and R", budget={"output_tuples": 1})
            assert excinfo.value.kind == "output_limit_exceeded"
            result = client.execute("R0 = select t >= 15 from R")
        assert result["rows"] == 2

    def test_server_cap_cannot_be_loosened(self, database):
        config = ServerConfig(workers=1, output_tuples=2)
        with ServerThread(database, config) as h:
            with h.client(tenant="capped") as client:
                # Asking for a bigger budget than the server allows must
                # still be clamped to the server's cap.
                reply = client.query("J = join R and R", budget={"output_tuples": 1000})
        assert reply["status"] == 429
        assert reply["error"]["limit"] == 2

    def test_bad_budget_knob_is_protocol_error(self, harness):
        with harness.client() as client:
            reply = client.query("R0 = select t >= 0 from R", budget={"nope": 3})
        assert reply["status"] == 400
        assert reply["error"]["kind"] == "protocol_error"

    def test_non_positive_budget_rejected(self, harness):
        with harness.client() as client:
            reply = client.query("R0 = select t >= 0 from R", budget={"output_tuples": 0})
        assert reply["status"] == 400


class TestConfigValidation:
    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError):
            ServerConfig(workers=0)

    def test_rejects_negative_queue(self):
        with pytest.raises(ValueError):
            ServerConfig(max_queue=-1)

    def test_rejects_bad_exhaustion_mode(self):
        with pytest.raises(ValueError):
            ServerConfig(on_exhausted="explode")
