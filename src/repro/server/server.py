"""The asyncio multi-tenant query server.

A :class:`QueryServer` fronts one :class:`~repro.model.Database` with a
pool of per-tenant :class:`~repro.query.QuerySession` workers:

* **Tenancy** — each tenant name maps to a long-lived session holding the
  tenant's multi-step bindings (``R0`` from one request is visible to the
  next), its own metrics registry, and an asyncio lock serializing that
  tenant's statements (a session is single-statement-at-a-time by
  design; different tenants run concurrently).
* **Governance** — every request runs under a fresh
  :class:`~repro.governor.Budget` built from the server's per-tenant
  default knobs tightened by the request's own ``budget`` overrides (a
  request can only *lower* a server-imposed cap, never raise it).
  Exhaustion surfaces as a structured 429-style reply; with
  ``on_exhausted="partial"`` the reply is a truncated result instead.
* **Admission control** — queries execute on a bounded thread pool of
  ``workers``; at most ``max_queue`` more may wait.  Beyond that the
  server *sheds*: an immediate 429-style ``overloaded`` reply rather
  than an unbounded queue and a timed-out client.
* **Graceful shutdown** — :meth:`QueryServer.shutdown` stops accepting
  work (new requests get a 503-style ``shutting_down`` reply), waits for
  in-flight queries to finish and their replies to be written, then
  closes tenant sessions and the executor.
* **Hot reload** — the ``reload`` op (and ``SIGHUP`` under ``repro
  serve``) re-reads the source database (image + WAL recovery, see
  :mod:`repro.storage.wal`), swaps it in as a new
  :class:`~repro.storage.snapshot.DatabaseSnapshot` between requests,
  and retires old tenant sessions once their in-flight statement
  finishes — every reply is served entirely from one snapshot, never
  torn across two.
* **Idle eviction** — with ``session_ttl`` set, tenant sessions idle
  past the TTL are closed (``server.evicted``); the tenant's next
  request lazily re-creates a fresh session (bindings are dropped —
  the same contract as a reload).

All registry mutation happens on the event-loop thread; query threads
only touch their tenant session's private registry, whose per-request
deltas are merged into the server registry after each request — the same
pipeline ``EXPLAIN ANALYZE`` uses, so ``stats`` replies and per-query
profiles agree.
"""

from __future__ import annotations

import asyncio
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from .._concurrency import new_async_lock
from ..errors import ProtocolError, ReproError, ResourceExhausted
from ..governor.budget import Budget
from ..model.database import Database
from ..obs import (
    SERVER_DISCONNECTS,
    SERVER_DRAINED,
    SERVER_EVICTED,
    SERVER_EXHAUSTED,
    SERVER_RELOAD_ERRORS,
    SERVER_RELOAD_RETIRED,
    SERVER_RELOADS,
    SERVER_REPLIES_ERROR,
    SERVER_REPLIES_OK,
    SERVER_REQUESTS,
    SERVER_SHED,
    MetricsRegistry,
)
from ..query.session import QuerySession
from ..storage.snapshot import DatabaseSnapshot, SnapshotManager
from .protocol import (
    draining_reply,
    error_reply,
    ok_reply,
    read_frame,
    reloading_reply,
    shed_reply,
    write_frame,
)

_LOG = logging.getLogger(__name__)

#: Budget knobs a request's ``budget`` object may carry.
_BUDGET_KNOBS = (
    "deadline_seconds",
    "solver_steps",
    "dnf_clauses",
    "output_tuples",
    "io_accesses",
)

#: Socket read size for accepted connections (see ``_handle``).
_READ_SIZE = 64 * 1024

#: Ceiling on the diagnostic ``sleep`` op (it occupies a worker slot).
_MAX_SLEEP_SECONDS = 30.0


@dataclass(frozen=True)
class ServerConfig:
    """Server knobs.

    ``workers`` bounds concurrently *executing* queries (the thread
    pool); ``max_queue`` bounds queries *waiting* for a thread — beyond
    ``workers + max_queue`` admitted-but-unfinished requests the server
    sheds.  The ``deadline_seconds`` … ``on_exhausted`` fields are the
    per-tenant default budget (``None`` = that resource unlimited);
    requests may tighten them per query but never loosen them.
    """

    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 2
    max_queue: int = 8
    #: Execution flavour for every tenant session (see docs/COLUMNAR.md):
    #: ``"columnar"`` turns on the vectorized fast path per tenant;
    #: ``None`` defers to ``$REPRO_EXEC_MODE`` / ``"auto"``.
    exec_mode: str | None = None
    analysis: str = "off"
    use_optimizer: bool = True
    drain_timeout: float = 30.0
    #: Evict a tenant session idle longer than this many seconds (its
    #: bindings are dropped; the next request lazily re-creates the
    #: session).  ``None`` disables eviction — sessions live forever.
    session_ttl: float | None = None
    deadline_seconds: float | None = None
    solver_steps: int | None = None
    dnf_clauses: int | None = None
    output_tuples: int | None = None
    io_accesses: int | None = None
    on_exhausted: str = "raise"

    def __post_init__(self) -> None:
        if not isinstance(self.workers, int) or self.workers < 1:
            raise ValueError(f"workers must be a positive integer, got {self.workers!r}")
        if not isinstance(self.max_queue, int) or self.max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {self.max_queue!r}")
        if self.on_exhausted not in ("raise", "partial"):
            raise ValueError(
                f"on_exhausted must be 'raise' or 'partial', got {self.on_exhausted!r}"
            )
        if self.drain_timeout <= 0:
            raise ValueError(f"drain_timeout must be positive, got {self.drain_timeout!r}")
        if self.session_ttl is not None and self.session_ttl <= 0:
            raise ValueError(f"session_ttl must be positive, got {self.session_ttl!r}")
        if self.exec_mode is not None:
            from ..exec import EXEC_MODES

            if self.exec_mode not in EXEC_MODES:
                raise ValueError(
                    f"exec_mode must be one of {EXEC_MODES}, got {self.exec_mode!r}"
                )

    def budget_knobs(self) -> dict[str, Any]:
        return {name: getattr(self, name) for name in _BUDGET_KNOBS}


@dataclass
class _Tenant:
    """One tenant's server-side state.

    ``snapshot`` is the pinned catalog view the session was built over;
    ``retired`` marks a tenant that has been removed from the routing
    table (hot reload or idle eviction) — a query that raced the removal
    re-resolves its tenant instead of running on the dead session.
    """

    name: str
    session: QuerySession
    snapshot: DatabaseSnapshot
    lock: asyncio.Lock = field(
        # Through the factory so REPRO_SANITIZE runs get order-tracked
        # locks (see repro._concurrency.new_async_lock).
        default_factory=lambda: new_async_lock("server.tenant")
    )
    queries: int = 0
    last_used: float = field(default_factory=time.monotonic)
    retired: bool = False


@dataclass
class _QueryOutcome:
    """What one executor-thread query run ships back to the loop."""

    payload: dict[str, Any]
    counters: dict[str, float]
    elapsed: float


class QueryServer:
    """A long-lived TCP front end over one constraint database."""

    def __init__(
        self,
        database: Database,
        config: ServerConfig | None = None,
        registry: MetricsRegistry | None = None,
        source: str | Path | None = None,
    ) -> None:
        self.config = config or ServerConfig()
        self.registry = registry if registry is not None else MetricsRegistry()
        self._snapshots = SnapshotManager(database)
        #: The on-disk image hot reload re-reads (``None`` disables the
        #: ``reload`` op — there is nothing to reload *from*).
        self._source = Path(source) if source is not None else None
        self._tenants: dict[str, _Tenant] = {}
        self._server: asyncio.base_events.Server | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._writers: set[asyncio.StreamWriter] = set()
        self._conn_tasks: set[asyncio.Task[None]] = set()
        self._retire_tasks: set[asyncio.Task[None]] = set()
        self._sweeper: asyncio.Task[None] | None = None
        self._reloading = False
        self._active = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._draining = False
        self._closed = False
        self.host: str | None = None
        self.port: int | None = None

    @property
    def snapshot_version(self) -> int:
        return self._snapshots.version

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket (``port=0`` picks an ephemeral port,
        published via :attr:`port`)."""
        if self._server is not None:
            raise RuntimeError("server already started")
        if self._closed:
            raise RuntimeError("server is closed")
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers, thread_name_prefix="repro-serve"
        )
        self._server = await asyncio.start_server(
            self._handle, host=self.config.host, port=self.config.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        if self.config.session_ttl is not None:
            self._sweeper = asyncio.create_task(self._sweep_idle_sessions())

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def active_queries(self) -> int:
        """Admitted-but-unfinished requests (running + queued)."""
        return self._active

    async def serve_until(self, stop: asyncio.Event) -> None:
        """Serve until ``stop`` is set, then drain and shut down."""
        if self._server is None:
            await self.start()
        await stop.wait()
        await self.shutdown()

    async def shutdown(self, drain: bool = True) -> None:
        """Graceful shutdown: refuse new work, drain in-flight queries
        (bounded by ``drain_timeout``), then tear everything down."""
        if self._closed:
            return
        self._draining = True
        if self._sweeper is not None:
            self._sweeper.cancel()
            try:
                await self._sweeper
            except asyncio.CancelledError:
                pass
            self._sweeper = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if drain and self._active:
            try:
                await asyncio.wait_for(
                    self._idle.wait(), timeout=self.config.drain_timeout
                )
            except asyncio.TimeoutError:
                _LOG.warning(
                    "drain timeout (%.1fs) with %d queries still in flight",
                    self.config.drain_timeout,
                    self._active,
                )
        for writer in list(self._writers):
            writer.close()
        # Closing the transports feeds EOF to each handler's pending read;
        # wait for them to exit on their own rather than cancelling (a
        # cancelled stream-handler task makes asyncio log spurious noise
        # from its connection_made callback).
        pending = {task for task in self._conn_tasks if not task.done()}
        if pending:
            await asyncio.wait(pending, timeout=5.0)
        retiring = {task for task in self._retire_tasks if not task.done()}
        if retiring:
            await asyncio.wait(retiring, timeout=5.0)
        self._closed = True
        tenants = list(self._tenants.values())
        self._tenants.clear()
        executor, self._executor = self._executor, None

        def _teardown() -> None:
            # The executor join blocks, so teardown runs off-loop (the
            # loop must stay responsive for any last handler tasks
            # unwinding above).
            for tenant in tenants:
                self._close_tenant(tenant)
            if executor is not None:
                executor.shutdown(wait=True)

        await asyncio.to_thread(_teardown)

    @staticmethod
    def _close_tenant(tenant: _Tenant) -> None:
        tenant.retired = True
        tenant.session.close()
        tenant.snapshot.unpin()

    # -- connection handling -------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        transport = writer.transport
        if hasattr(transport, "max_size"):
            # asyncio's default 256 KiB recv buffer is above glibc's 128 KiB
            # mmap threshold, so every frame would mmap + fault + munmap.
            transport.max_size = _READ_SIZE
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while True:
                try:
                    request = await read_frame(reader)
                except ProtocolError as exc:
                    # Malformed framing: reply once, then drop the
                    # connection (the stream position is unrecoverable).
                    await self._safe_write(writer, error_reply(exc))
                    break
                if request is None:
                    break
                reply = await self._dispatch(request)
                if reader.at_eof():
                    # The client went away while its query ran; the
                    # session/lock are already released — just account
                    # for the undeliverable reply.
                    self.registry.add(SERVER_DISCONNECTS)
                    break
                if not await self._safe_write(writer, reply):
                    break
        except (ConnectionResetError, BrokenPipeError):
            self.registry.add(SERVER_DISCONNECTS)
        finally:
            self._writers.discard(writer)
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _safe_write(
        self, writer: asyncio.StreamWriter, reply: Mapping[str, Any]
    ) -> bool:
        try:
            await write_frame(writer, reply)
            return True
        except (ConnectionResetError, BrokenPipeError, OSError):
            self.registry.add(SERVER_DISCONNECTS)
            return False

    # -- request dispatch ----------------------------------------------------

    async def _dispatch(self, request: Mapping[str, Any]) -> dict[str, Any]:
        request_id = request.get("id")
        op = request.get("op")
        self.registry.add(SERVER_REQUESTS)
        try:
            if op == "ping":
                return ok_reply(request_id, pong=True, draining=self._draining)
            if op == "stats":
                return self._stats_reply(request_id)
            if op == "query":
                return await self._admitted(request_id, self._do_query, request)
            if op == "sleep":
                return await self._admitted(request_id, self._do_sleep, request)
            if op == "reload":
                return await self._do_reload(request_id)
            raise ProtocolError(f"unknown op {op!r}")
        except ResourceExhausted as exc:
            self.registry.add(SERVER_EXHAUSTED)
            self.registry.add(SERVER_REPLIES_ERROR)
            return error_reply(exc, request_id)
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            if not isinstance(exc, ReproError):
                # Taxonomy errors are expected client-visible outcomes;
                # anything else is a server bug worth a stack trace in the
                # *log* (the wire reply still carries no traceback).
                _LOG.exception("request failed (op=%r, id=%r)", op, request_id)
            self.registry.add(SERVER_REPLIES_ERROR)
            return error_reply(exc, request_id)

    async def _admitted(self, request_id: Any, handler: Any, request: Mapping[str, Any]) -> dict[str, Any]:
        """Run ``handler`` under admission control (shed / drain gates and
        the in-flight counter the drain waits on)."""
        if self._draining:
            self.registry.add(SERVER_REPLIES_ERROR)
            return draining_reply(request_id)
        capacity = self.config.workers + self.config.max_queue
        if self._active >= capacity:
            self.registry.add(SERVER_SHED)
            self.registry.add(SERVER_REPLIES_ERROR)
            return shed_reply(request_id, queued=self._active, capacity=capacity)
        self._active += 1
        self._idle.clear()
        try:
            reply = await handler(request_id, request)
        finally:
            self._active -= 1
            if self._active == 0:
                self._idle.set()
            if self._draining:
                self.registry.add(SERVER_DRAINED)
        return reply

    def _stats_reply(self, request_id: Any) -> dict[str, Any]:
        now = time.monotonic()
        tenants = {
            tenant.name: {
                "queries": tenant.queries,
                "busy": tenant.lock.locked(),
                "snapshot_version": tenant.snapshot.version,
                "idle_seconds": now - tenant.last_used,
            }
            for tenant in self._tenants.values()
        }
        current = self._snapshots.current()
        latency = self.registry.timer("server.latency")
        return ok_reply(
            request_id,
            counters=self.registry.snapshot(),
            tenants=tenants,
            active=self._active,
            draining=self._draining,
            reloading=self._reloading,
            snapshot={"version": current.version, "readers": current.readers},
            latency={
                "calls": latency.calls,
                "total_seconds": latency.total_seconds,
                "mean_seconds": latency.mean_seconds,
            },
        )

    # -- the query op --------------------------------------------------------

    async def _do_query(self, request_id: Any, request: Mapping[str, Any]) -> dict[str, Any]:
        statement = request.get("statement")
        if not isinstance(statement, str) or not statement.strip():
            raise ProtocolError("query request needs a non-empty 'statement' string")
        limit = request.get("limit", 20)
        if not isinstance(limit, int) or isinstance(limit, bool) or limit < 0:
            raise ProtocolError(f"'limit' must be a non-negative integer, got {limit!r}")
        budget = self._budget_for(request.get("budget"))
        loop = asyncio.get_running_loop()
        tenant = await self._acquire_tenant(request)
        try:
            if self._closed:
                return draining_reply(request_id)
            assert self._executor is not None
            outcome = await loop.run_in_executor(
                self._executor, self._run_statement, tenant, statement, budget, limit
            )
        finally:
            tenant.last_used = time.monotonic()
            tenant.lock.release()
        tenant.queries += 1
        self.registry.merge_snapshot(outcome.counters)
        self.registry.timer("server.latency").add(outcome.elapsed)
        self.registry.add(SERVER_REPLIES_OK)
        return ok_reply(
            request_id,
            tenant=tenant.name,
            result=outcome.payload,
            elapsed_ms=outcome.elapsed * 1000.0,
        )

    def _run_statement(
        self, tenant: _Tenant, statement: str, budget: Budget | None, limit: int
    ) -> _QueryOutcome:
        """Executor-thread body: run one statement on the tenant's session
        under its per-request budget, capturing the engine counters."""
        session = tenant.session
        session.budget = budget
        started = time.perf_counter()
        try:
            with session.registry.scope() as counters:
                result = session.execute(statement)
        finally:
            session.budget = None
        elapsed = time.perf_counter() - started
        payload: dict[str, Any] = {
            "target": result.name,
            "rows": len(result),
            "truncated": result.truncated,
            "text": result.pretty(limit=limit),
        }
        if budget is not None:
            payload["budget"] = budget.summary()
            if result.truncated:
                # Partial-mode exhaustion: the rows above are the sound
                # prefix the governor kept; say which window was spent.
                payload["exhausted"] = {
                    name: value
                    for name, value in budget.snapshot().items()
                    if name.startswith(("consumed.", "limit."))
                }
        return _QueryOutcome(payload=payload, counters=dict(counters), elapsed=elapsed)

    def _tenant_for(self, request: Mapping[str, Any]) -> _Tenant:
        name = request.get("tenant", "default")
        if not isinstance(name, str) or not name:
            raise ProtocolError(f"'tenant' must be a non-empty string, got {name!r}")
        tenant = self._tenants.get(name)
        if tenant is None:
            snapshot = self._snapshots.current().pin()
            session = QuerySession(
                snapshot.database,
                use_optimizer=self.config.use_optimizer,
                registry=MetricsRegistry(),
                analysis=self.config.analysis,
                exec_mode=self.config.exec_mode,
            )
            tenant = self._tenants[name] = _Tenant(
                name=name, session=session, snapshot=snapshot
            )
        tenant.last_used = time.monotonic()
        return tenant

    async def _acquire_tenant(self, request: Mapping[str, Any]) -> _Tenant:
        """Resolve the request's tenant and take its statement lock,
        re-resolving if a reload or eviction retired the tenant between
        lookup and acquisition (the freshly resolved tenant then sits on
        the current snapshot)."""
        while True:
            tenant = self._tenant_for(request)
            await tenant.lock.acquire()
            if not tenant.retired:
                return tenant
            tenant.lock.release()

    def _budget_for(self, overrides: Any) -> Budget | None:
        """The effective per-request budget: server defaults tightened by
        the request's overrides (a request can never exceed the server's
        per-tenant caps)."""
        knobs = self.config.budget_knobs()
        on_exhausted = self.config.on_exhausted
        if overrides is not None:
            if not isinstance(overrides, Mapping):
                raise ProtocolError(f"'budget' must be an object, got {overrides!r}")
            unknown = set(overrides) - set(_BUDGET_KNOBS) - {"on_exhausted"}
            if unknown:
                raise ProtocolError(f"unknown budget knobs: {sorted(unknown)}")
            for name in _BUDGET_KNOBS:
                if name not in overrides:
                    continue
                value = overrides[name]
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise ProtocolError(f"budget knob {name!r} must be a number, got {value!r}")
                if value <= 0:
                    raise ProtocolError(f"budget knob {name!r} must be positive, got {value!r}")
                if name != "deadline_seconds":
                    value = int(value)
                current = knobs[name]
                knobs[name] = value if current is None else min(current, value)
            if "on_exhausted" in overrides:
                mode = overrides["on_exhausted"]
                if mode not in ("raise", "partial"):
                    raise ProtocolError(
                        f"budget knob 'on_exhausted' must be 'raise' or 'partial', got {mode!r}"
                    )
                on_exhausted = mode
        if all(value is None for value in knobs.values()):
            return None
        return Budget(on_exhausted=on_exhausted, **knobs)

    # -- hot reload ----------------------------------------------------------

    async def _do_reload(self, request_id: Any) -> dict[str, Any]:
        """Swap in a fresh snapshot of the source database.

        The load (image + WAL recovery) runs off-loop on the *default*
        executor so query workers stay free; the swap itself is a single
        loop-thread assignment.  Old tenant sessions are retired — each
        finishes its in-flight statement on its old snapshot, then closes
        — and the next request per tenant lazily builds a session over
        the new snapshot.  No reply is ever assembled from two snapshots.
        """
        if self._draining:
            self.registry.add(SERVER_REPLIES_ERROR)
            return draining_reply(request_id)
        if self._source is None:
            raise ProtocolError(
                "server has no reload source (it was started from an in-memory "
                "database, not a file)"
            )
        if self._reloading:
            self.registry.add(SERVER_REPLIES_ERROR)
            return reloading_reply(request_id)
        self._reloading = True
        try:
            loop = asyncio.get_running_loop()
            try:
                database, recovery = await loop.run_in_executor(None, self._load_source)
            except Exception:
                self.registry.add(SERVER_RELOAD_ERRORS)
                raise
            self._snapshots.swap(database)
            retired = self._retire_all_tenants()
            current = self._snapshots.current()
            self.registry.add(SERVER_RELOADS)
            if retired:
                self.registry.add(SERVER_RELOAD_RETIRED, retired)
            self.registry.add(SERVER_REPLIES_OK)
            return ok_reply(
                request_id,
                reloaded=True,
                version=current.version,
                relations=list(database.names()),
                retired_sessions=retired,
                recovery=recovery,
            )
        finally:
            self._reloading = False

    def _load_source(self) -> tuple[Database, dict[str, int]]:
        """Executor body: recover the image + WAL into a fresh catalog."""
        from ..storage.wal import open_durable

        assert self._source is not None
        with open_durable(self._source) as durable:
            return durable.database, durable.recovery.to_dict()

    def reload_soon(self) -> None:
        """Schedule a reload from a signal handler (``SIGHUP``); safe to
        call from the loop thread only (signal handlers registered via
        ``loop.add_signal_handler`` are)."""

        async def _run() -> None:
            try:
                await self._do_reload(None)
            except (ReproError, OSError):
                # Only the failure modes a bad source file can produce;
                # anything else (a bug) propagates and fails loudly.
                _LOG.exception("SIGHUP reload failed")

        task = asyncio.ensure_future(_run())
        self._retire_tasks.add(task)
        task.add_done_callback(self._retire_tasks.discard)

    def _retire_all_tenants(self) -> int:
        """Remove every tenant from the routing table; each one's session
        closes once its in-flight statement (if any) finishes."""
        tenants = list(self._tenants.values())
        self._tenants.clear()
        for tenant in tenants:
            tenant.retired = True
            task = asyncio.create_task(self._drain_tenant(tenant))
            self._retire_tasks.add(task)
            task.add_done_callback(self._retire_tasks.discard)
        return len(tenants)

    async def _drain_tenant(self, tenant: _Tenant) -> None:
        async with tenant.lock:
            tenant.session.close()
            tenant.snapshot.unpin()

    # -- idle-session eviction -----------------------------------------------

    async def _sweep_idle_sessions(self) -> None:
        ttl = self.config.session_ttl
        assert ttl is not None
        interval = max(ttl / 4.0, 0.05)
        while True:
            await asyncio.sleep(interval)
            self.evict_idle()

    def evict_idle(self) -> int:
        """Close tenant sessions idle past ``session_ttl``; returns how
        many were evicted.  Runs synchronously on the loop thread with no
        await points, so the busy-check cannot race a statement: a tenant
        whose lock is free here stays free until we are done with it."""
        ttl = self.config.session_ttl
        if ttl is None:
            return 0
        now = time.monotonic()
        evicted = 0
        for name, tenant in list(self._tenants.items()):
            if tenant.lock.locked() or now - tenant.last_used < ttl:
                continue
            del self._tenants[name]
            self._close_tenant(tenant)
            evicted += 1
            self.registry.add(SERVER_EVICTED)
        return evicted

    # -- the sleep op --------------------------------------------------------

    async def _do_sleep(self, request_id: Any, request: Mapping[str, Any]) -> dict[str, Any]:
        """Diagnostic: hold a worker slot (and optionally a tenant lock)
        for a bounded duration — the server-side analogue of
        ``SELECT pg_sleep(n)``, used by the fault tests and load probes."""
        seconds = request.get("seconds", 0)
        if isinstance(seconds, bool) or not isinstance(seconds, (int, float)) or seconds < 0:
            raise ProtocolError(f"'seconds' must be a non-negative number, got {seconds!r}")
        seconds = min(float(seconds), _MAX_SLEEP_SECONDS)
        loop = asyncio.get_running_loop()
        if "tenant" in request:
            tenant = self._tenant_for(request)
            async with tenant.lock:
                assert self._executor is not None
                await loop.run_in_executor(self._executor, time.sleep, seconds)
        else:
            assert self._executor is not None
            await loop.run_in_executor(self._executor, time.sleep, seconds)
        self.registry.add(SERVER_REPLIES_OK)
        return ok_reply(request_id, slept=seconds)
