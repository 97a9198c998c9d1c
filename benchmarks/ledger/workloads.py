"""The seven ledger workloads: seeded inputs, set-up, oracle, targets.

Every workload exposes the same surface to ``measure.py`` / ``layers.py``:

* ``build()`` — the *set-up* phase the ``setup_s`` metric times: generate
  inputs from the seed, build indexes, write the ``.cdb`` image, start the
  in-process server.  ``teardown()`` undoes it.
* ``fill_oracle()`` — expected answers, computed independently of the
  path under test (brute force / plain Python / a serial unoptimized
  session); untimed.
* ``ops`` — the fixed statement list the closed loop cycles through.
* ``targets()`` — one callable endpoint per client.

Only default configuration is used: ``ServerConfig()`` and
``QuerySession(db)`` with no ``exec_mode`` / ``workers`` argument.
"""

from __future__ import annotations

import os
import random
import re
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Mapping

from repro.constraints import parse_constraints
from repro.indexing import JointIndex, SeparateIndexes
from repro.model.database import Database
from repro.model.relation import ConstraintRelation
from repro.model.tuples import HTuple
from repro.query import QuerySession
from repro.server import ServerClient, ServerConfig, ServerThread
from repro.spatial import buffer_join_bruteforce, k_nearest_bruteforce
from repro.storage import BufferPool, load_database, open_durable, save_database, wal_path_for
from repro.workloads import (
    brute_force_matches,
    build_constraint_relation,
    generate_data,
    generate_gis_scenario,
    generate_hurricane_database,
    generate_queries,
    landownership_schema,
    paper_queries,
    query_box_one_attribute,
    query_box_two_attributes,
)

#: Hurricane tracks per database.  One track's join cost swings ±13 % with
#: the seed (how many parcels the random walk crosses); four tracks in one
#: database halve that, and their ~5.8k memo keys still fit the
#: 8192-entry solver cache.
HURRICANE_TRACKS = 4
PARCELS_PER_SIDE = 8

BOXSCAN_BOXES = 400
BOXSCAN_QUERIES = 40

INDEX_BOXES = 1500
INDEX_QUERIES = 200  # each runs on both strategies
POOL_PAGES = 32

KNEAREST_PARCELS = 10

FEED_BATCH = 10
FEED_PERIOD = 10  # every FEED_PERIOD-th commit resets Feed and checkpoints
#: The writer reopens the image for every commit and reloads the server
#: after every second one.  With a reload after each, ~6 % of reader
#: statements overlap a reload and the reader's p95 sits on the knee
#: between the two regimes, flipping from run to run; at ~3 % it is a
#: steady figure, and the reloads' cost shows in the reader's ops_per_s.
COMMITS_PER_RELOAD = 2


# -- operations ---------------------------------------------------------------


@dataclass
class Op:
    """One entry of a workload's statement list plus its expected answer."""

    text: str  # a statement, or "ping"
    session: str = ""  # index_probe: which strategy's session runs it
    expect_rows: int | None = None
    #: ``str(tuple)`` of every tuple the result may show (order-free: the
    #: optimizer may reorder a join, and replies show the first 20 rows).
    expect_lines: frozenset[str] | None = None

    @property
    def is_ping(self) -> bool:
        return self.text == "ping"

    def before(self) -> Any:
        """State captured just before the request is sent."""
        return None

    def check(self, reply: Mapping[str, Any], token: Any) -> bool:
        del token
        if not reply.get("ok"):
            return False
        if self.is_ping:
            return reply.get("pong") is True
        result = reply["result"]
        if result["rows"] != self.expect_rows or result.get("truncated"):
            return False
        if self.expect_lines is not None and result.get("text") is not None:
            shown = _tuple_lines(result["text"])
            if any(line not in self.expect_lines for line in shown):
                return False
        return True


def _tuple_lines(text: str) -> list[str]:
    """The tuple renderings of a ``pretty()`` text (header, the
    ``... (n more)`` marker and ``(empty)`` dropped)."""
    lines = [line[2:] for line in text.splitlines()[1:]]
    return [
        line for line in lines if line != "(empty)" and not line.startswith("... (")
    ]


def _relation_lines(relation: ConstraintRelation) -> frozenset[str]:
    return frozenset(str(t) for t in relation)


# -- targets ------------------------------------------------------------------


class ServerTarget:
    """One blocking client connection bound to one tenant."""

    def __init__(self, client: ServerClient, tenant: str) -> None:
        self.client = client
        self.tenant = tenant

    def call(self, op: Op) -> dict[str, Any]:
        if op.is_ping:
            return self.client.request({"op": "ping"})
        return self.client.request(
            {"op": "query", "tenant": self.tenant, "statement": op.text, "limit": 20}
        )

    def close(self) -> None:
        self.client.close()


class SessionTarget:
    """In-process sessions, one per index strategy (``index_probe``)."""

    def __init__(self, sessions: Mapping[str, QuerySession]) -> None:
        self.sessions = sessions

    def call(self, op: Op) -> dict[str, Any]:
        result = self.sessions[op.session].execute(op.text)
        return {
            "ok": True,
            "result": {"rows": len(result), "truncated": result.truncated, "text": None},
        }

    def close(self) -> None:
        pass


# -- workload base ------------------------------------------------------------


class Workload:
    name = ""
    clients = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.ops: list[Op] = []
        self.db: Database = Database()
        #: CPUs left over by ``confine`` (where a helper process may run).
        self.spare_cpus: list[int] = []

    def confine(self) -> list[int]:
        """Pin this process to one CPU; returns the CPUs it was allowed
        before (empty where the platform has no affinity call).

        In this kind of VM a cross-core thread wake-up costs ~0.1 ms, and
        whether the client, event-loop and executor threads of a run share
        a core is a per-process lottery (point_1c: p50 0.33 ms when they
        do, 0.70 ms when not).  hurricane_2c is pinned too: on two cores
        its tenants collide on the solver-cache lock and every collision
        costs the loser a 5 ms GIL wait, which gives 24–31 ops/s and p95
        200–330 ms *with one seed* — too chaotic to carry a bound."""
        if not hasattr(os, "sched_setaffinity"):
            return []
        allowed = sorted(os.sched_getaffinity(0))
        # The last CPU: the first one takes most device interrupts here.
        self.spare_cpus = allowed[:-1] or allowed
        os.sched_setaffinity(0, allowed[-1:])
        return allowed

    def client_ops(self, client: int) -> list[Op]:
        """The statement list client number ``client`` cycles through."""
        del client
        return self.ops

    def build(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        raise NotImplementedError

    def fill_oracle(self) -> None:
        raise NotImplementedError

    def targets(self) -> list[Any]:
        raise NotImplementedError

    def shadow_indexes(self, op: Op) -> Mapping[str, Mapping[frozenset[str], object]]:
        """The index catalog the session running ``op`` holds (server
        sessions have none)."""
        del op
        return {}

    @contextmanager
    def background(self) -> Iterator[None]:
        """Work that runs beside the timed phase (the ingest writer)."""
        yield

    def side_ops(self) -> tuple[int, int]:
        """``(attempted, failed)`` operations issued by ``background``."""
        return (0, 0)


class ServerWorkload(Workload):
    """A workload driven through ``ServerClient`` over real TCP."""

    source: Path | None = None

    def make_database(self) -> Database:
        raise NotImplementedError

    def build(self) -> None:
        self.db = self.make_database()
        self.harness = ServerThread(self.db, ServerConfig(), source=self.source).start()

    def teardown(self) -> None:
        self.harness.stop()

    def targets(self) -> list[ServerTarget]:
        return [
            ServerTarget(self.harness.client(tenant=f"t{i}"), f"t{i}")
            for i in range(self.clients)
        ]


# -- hurricane ----------------------------------------------------------------


def _parcel_ids(rng: random.Random, count: int) -> list[str]:
    cells = [(r, c) for r in range(PARCELS_PER_SIDE) for c in range(PARCELS_PER_SIDE)]
    return [f"P{r}_{c}" for r, c in rng.sample(cells, count)]


class Hurricane(ServerWorkload):
    """The five §3.3 scripts, once per hurricane track."""

    name = "hurricane_1c"

    def make_database(self) -> Database:
        rng = random.Random(self.seed)
        relations: dict[str, ConstraintRelation] = {}
        #: One statement list per script (a script's steps depend on each
        #: other; whole scripts may run in any order).
        self.scripts: list[list[Op]] = []
        for track in range(HURRICANE_TRACKS):
            generated = generate_hurricane_database(
                parcels_per_side=PARCELS_PER_SIDE, seed=rng.randrange(1 << 30)
            )
            relations["Land"] = generated["Land"]  # the grid is seed-free
            relations[f"Hurricane_{track}"] = generated["Hurricane"]
            relations[f"Landownership_{track}"] = generated["Landownership"]
            (parcel,) = _parcel_ids(rng, 1)
            for script in paper_queries().values():
                text = script.strip().replace("landId=A", f"landId={parcel}")
                text = re.sub(r"\b(Hurricane|Landownership)\b", rf"\1_{track}", text)
                self.scripts.append([Op(line) for line in text.splitlines()])
        self.ops = [op for script in self.scripts for op in script]
        return Database(relations)

    def fill_oracle(self) -> None:
        session = QuerySession(self.db, use_optimizer=False)
        for op in self.ops:
            result = session.execute(op.text)
            op.expect_rows = len(result)
            op.expect_lines = _relation_lines(result)


class Hurricane2c(Hurricane):
    """The same 56 statements, split between two clients: tenant ``t0``
    runs the scripts of tracks 0–1 in order, ``t1`` those of tracks 2–3 in
    reverse script order.  Two clients walking identical script sequences
    from a common start stay in lockstep — every join lands on the other
    client's join — until timing noise lets them drift, and how soon that
    happens differs from run to run; opposite orders fix the mix of
    overlaps instead."""

    name = "hurricane_2c"
    clients = 2

    def client_ops(self, client: int) -> list[Op]:
        half = len(self.scripts) // 2
        scripts = self.scripts[:half] if client == 0 else list(reversed(self.scripts[half:]))
        return [op for script in scripts for op in script]


# -- point selects ------------------------------------------------------------


def _point_ops(db: Database, rng: random.Random) -> list[Op]:
    """8 relational-equality selects (3 + 3 by parcel, 2 by owner) and a
    ping, with answers computed by plain Python over the stored values."""
    parcels = _parcel_ids(rng, 6)
    owners = rng.sample(sorted({t.values["name"] for t in db["Landownership"]}), 2)
    probes = (
        [("landId", p, "Landownership") for p in parcels[:3]]
        + [("landId", p, "Land") for p in parcels[3:]]
        + [("name", o, "Landownership") for o in owners]
    )
    ops = []
    for i, (attribute, value, relation) in enumerate(probes):
        matching = [t for t in db[relation] if t.values[attribute] == value]
        ops.append(
            Op(
                f"S{i} = select {attribute}={value} from {relation}",
                expect_rows=len(matching),
                expect_lines=frozenset(str(t) for t in matching),
            )
        )
    ops.append(Op("ping"))
    return ops


class Point(ServerWorkload):
    name = "point_1c"

    def make_database(self) -> Database:
        rng = random.Random(self.seed)
        db = generate_hurricane_database(
            parcels_per_side=PARCELS_PER_SIDE, seed=rng.randrange(1 << 30)
        )
        self.ops = _point_ops(db, rng)
        return db

    def fill_oracle(self) -> None:
        pass  # answers are computed with the statements


# -- box scan -----------------------------------------------------------------


def _select_text(target: str, box: Mapping[str, tuple[float, float]], relation: str) -> str:
    conditions = ", ".join(
        f"{name}>={low:.3f}, {name}<={high:.3f}" for name, (low, high) in box.items()
    )
    return f"{target} = select {conditions} from {relation}"


def _rounded(box: Mapping[str, tuple[float, float]]) -> dict[str, tuple[float, float]]:
    """The box exactly as ``_select_text`` prints it, so oracle and engine
    see the same bounds."""
    return {
        name: (float(f"{low:.3f}"), float(f"{high:.3f}")) for name, (low, high) in box.items()
    }


def _mixed_boxes(queries: list) -> list[dict[str, tuple[float, float]]]:
    """Three two-attribute boxes, then two one-attribute ones, repeating.
    The two shapes cost differently; an even split would put the median
    latency on the boundary between them, where it flips from run to run,
    and blocks of one shape would make a partial pass unrepresentative."""
    return [
        _rounded(
            query_box_two_attributes(query) if i % 5 < 3 else query_box_one_attribute(query)
        )
        for i, query in enumerate(queries)
    ]


def _fill_box_oracle(ops: list[Op], boxes: list, data: list) -> None:
    for op, box in zip(ops, boxes):
        op.expect_rows = len(brute_force_matches(data, box))


class BoxScan(ServerWorkload):
    name = "boxscan_1c"

    def make_database(self) -> Database:
        rng = random.Random(self.seed)
        self.data = generate_data(BOXSCAN_BOXES, seed=rng.randrange(1 << 30))
        queries = generate_queries(BOXSCAN_QUERIES, seed=rng.randrange(1 << 30))
        self.boxes = _mixed_boxes(queries)
        self.ops = [Op(_select_text("B", box, "boxes")) for box in self.boxes]
        return Database({"boxes": build_constraint_relation(self.data, "boxes")})

    def fill_oracle(self) -> None:
        _fill_box_oracle(self.ops, self.boxes, self.data)


# -- spatial ------------------------------------------------------------------


class Spatial(ServerWorkload):
    name = "spatial_1c"

    def make_database(self) -> Database:
        rng = random.Random(self.seed)
        self.scenario = generate_gis_scenario(
            PARCELS_PER_SIDE, roads=4, shelters=12, seed=rng.randrange(1 << 30)
        )
        self.near = rng.sample(sorted(self.scenario.parcels.features), KNEAREST_PARCELS)
        self.ops = [
            Op("J0 = bufferjoin Parcels and Roads within 2"),
            Op("J1 = bufferjoin Parcels and Parcels within 1"),
        ] + [Op(f"K = knearest 3 near {fid} of Parcels in Shelters") for fid in self.near]
        return self.scenario.to_database()

    def fill_oracle(self) -> None:
        s = self.scenario
        for op, expected in (
            (self.ops[0], buffer_join_bruteforce(s.parcels, s.roads, 2)),
            (self.ops[1], buffer_join_bruteforce(s.parcels, s.parcels, 1)),
        ):
            op.expect_rows = len(expected)
            op.expect_lines = _relation_lines(expected)
        for op, fid in zip(self.ops[2:], self.near):
            ranked = k_nearest_bruteforce(s.shelters, s.parcels[fid], 3)
            op.expect_rows = len(ranked)
            op.expect_lines = frozenset(
                f"(fid={feature.fid}; rank={rank})"
                for rank, (feature, _) in enumerate(ranked, start=1)
            )


# -- index probe --------------------------------------------------------------


class IndexProbe(Workload):
    """The paper's §5 experiment as a latency workload: every query runs
    on the joint and on the separate strategy, alternating, through one
    buffer pool that is smaller than the trees."""

    name = "index_probe"

    def build(self) -> None:
        rng = random.Random(self.seed)
        self.data = generate_data(INDEX_BOXES, seed=rng.randrange(1 << 30))
        queries = generate_queries(INDEX_QUERIES, seed=rng.randrange(1 << 30))
        relation = build_constraint_relation(self.data, "boxes")
        self.db = Database({"boxes": relation})
        started = time.perf_counter()
        self.strategies = {
            "joint": JointIndex(relation, ["x", "y"]),
            "separate": SeparateIndexes(relation, ["x", "y"]),
        }
        self.index_build_s = time.perf_counter() - started
        self.pool = BufferPool(POOL_PAGES)
        for strategy in self.strategies.values():
            strategy.attach_buffer_pool(self.pool)
        self.sessions = {
            key: QuerySession(self.db, indexes=self._catalog(key)) for key in self.strategies
        }
        self.boxes = []
        self.ops = []
        for box in _mixed_boxes(queries):
            for key in self.strategies:
                self.boxes.append(box)
                self.ops.append(Op(_select_text("I", box, "boxes"), session=key))

    def _catalog(self, key: str) -> dict[str, dict[frozenset[str], object]]:
        return {"boxes": {frozenset(("x", "y")): self.strategies[key]}}

    def teardown(self) -> None:
        for session in self.sessions.values():
            session.close()

    def fill_oracle(self) -> None:
        _fill_box_oracle(self.ops, self.boxes, self.data)

    def targets(self) -> list[SessionTarget]:
        return [SessionTarget(self.sessions)]

    def shadow_indexes(self, op: Op) -> Mapping[str, Mapping[frozenset[str], object]]:
        return self._catalog(op.session)


# -- ingest beside reads ------------------------------------------------------


def feed_tuples(parcel: str, label: str, count: int = FEED_BATCH) -> list[HTuple]:
    schema = landownership_schema()
    return [
        HTuple(
            schema,
            {"name": f"{label}_{i}", "landId": parcel},
            parse_constraints(f"{i} <= t, t <= {i + 5}"),
        )
        for i in range(count)
    ]


def feed_baseline(parcel: str) -> ConstraintRelation:
    """What ``Feed`` holds at the start of every period."""
    return ConstraintRelation(landownership_schema(), feed_tuples(parcel, "base"), "Feed")


def write_cycle(source: Path, cycle: int, parcel: str, baseline: ConstraintRelation) -> float:
    """One writer cycle against the image at ``source``: open (recovering
    the log), commit one fsynced append transaction, close; every
    ``FEED_PERIOD``-th cycle also resets ``Feed`` and checkpoints, so the
    state is periodic.  Returns the ``begin()``→``commit()`` seconds."""
    with open_durable(source) as durable:
        batch = feed_tuples(parcel, f"c{cycle}")
        started = time.perf_counter()
        txn = durable.begin()
        txn.append_tuples("Feed", batch)
        txn.commit()
        commit_s = time.perf_counter() - started
        if cycle % FEED_PERIOD == FEED_PERIOD - 1:
            with durable.begin() as reset:
                reset.put_relation("Feed", baseline)
            durable.checkpoint()
    return commit_s


class _FeedOp(Op):
    """``select landId=<parcel> from Feed`` returns every Feed row.  The
    reply must show the row count of *one* published snapshot: one the
    server could have been on between send and reply.  A torn read (half a
    transaction, or rows from two snapshots) matches none."""

    def __init__(self, text: str, owner: "IngestReload") -> None:
        super().__init__(text)
        self.owner = owner

    def before(self) -> int:
        return self.owner.reloads_done

    def check(self, reply: Mapping[str, Any], token: int) -> bool:
        if not reply.get("ok"):
            return False
        allowed = {
            FEED_BATCH * (reloads * COMMITS_PER_RELOAD % FEED_PERIOD + 1)
            for reloads in range(token, self.owner.reloads_started + 1)
        }
        return reply["result"]["rows"] in allowed


class IngestReload(ServerWorkload):
    name = "ingest_reload"

    def make_database(self) -> Database:
        rng = random.Random(self.seed)
        db = generate_hurricane_database(
            parcels_per_side=PARCELS_PER_SIDE, seed=rng.randrange(1 << 30)
        )
        self.ops = _point_ops(db, rng)
        (self.parcel,) = _parcel_ids(rng, 1)
        self.baseline = feed_baseline(self.parcel)
        db.add("Feed", self.baseline)
        self.ops.append(_FeedOp(f"F = select landId={self.parcel} from Feed", self))
        self.source = self.workdir / "ingest.cdb"
        wal_path_for(self.source).unlink(missing_ok=True)
        save_database(db, self.source)
        self.reloads_started = 0
        self.reloads_done = 0
        self.commit_s: list[float] = []
        self.reload_s: list[float] = []
        self.reload_failures = 0
        # The server serves what the image holds, as `repro serve` would.
        return load_database(self.source)

    def fill_oracle(self) -> None:
        pass  # point answers come with the statements; Feed checks itself

    def _write_until(
        self, stop: threading.Event, writer: subprocess.Popen, client: ServerClient
    ) -> None:
        while not stop.is_set():
            for _ in range(COMMITS_PER_RELOAD):
                writer.stdin.write(f"{len(self.commit_s)}\n")
                writer.stdin.flush()
                self.commit_s.append(float(writer.stdout.readline()))
            self.reloads_started += 1
            started = time.perf_counter()
            reply = client.reload()
            self.reload_s.append(time.perf_counter() - started)
            if not reply.get("ok"):
                self.reload_failures += 1
            self.reloads_done += 1

    @contextmanager
    def background(self) -> Iterator[None]:
        """The writer: a child process (``writer.py``) commits to the image
        (as `repro ingest` would, beside a running server), and a thread
        here asks the server to reload after each commit.  The thread only
        waits on a pipe and a socket, so it takes nothing from the reader;
        what the reader competes with is the server's own recovery and
        swap.  The child is a plain ``Popen`` — ``multiprocessing`` would
        add a resource-tracker process that outlives the run — and is
        waited for on every path out."""
        writer = subprocess.Popen(
            [
                sys.executable,
                str(Path(__file__).with_name("writer.py")),
                str(self.source),
                self.parcel,
                ",".join(map(str, self.spare_cpus)),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        stop = threading.Event()
        errors: list[BaseException] = []

        def body() -> None:
            try:
                with self.harness.client(tenant="writer") as client:
                    self._write_until(stop, writer, client)
            except BaseException as exc:  # re-raised in the caller below
                errors.append(exc)

        thread = threading.Thread(target=body, name="ledger-writer")
        try:
            if writer.stdout.readline().strip() != "ready":
                raise RuntimeError("the writer process did not start")
            thread.start()
            yield
        finally:
            stop.set()
            if thread.ident is not None:
                thread.join()
            try:
                writer.stdin.close()  # end of input ends the child
            except OSError:
                pass  # the child already died; wait() below reaps it
            try:
                writer.wait(timeout=30)
            except subprocess.TimeoutExpired:
                writer.kill()
                writer.wait()
            writer.stdout.close()
        if errors:
            raise errors[0]

    def side_ops(self) -> tuple[int, int]:
        return (len(self.reload_s), self.reload_failures)


BY_NAME: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (Hurricane, Hurricane2c, Point, BoxScan, Spatial, IndexProbe, IngestReload)
}
