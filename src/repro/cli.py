"""Command-line interface: run query scripts against ``.cdb`` databases.

The zero-code path into the system::

    python -m repro query db.cdb script.cqa          # run a script file
    python -m repro query db.cdb -e "R0 = select t >= 4 from Hurricane"
    python -m repro show db.cdb [RelationName]       # inspect a database
    python -m repro serve db.cdb --port 7411         # multi-tenant server
    python -m repro ingest db.cdb --put new.cdb      # durable writes (WAL)
    python -m repro demo                             # the §3.3 case study

Scripts are the paper's ASCII multi-step language (one statement per
line); the last statement's result is printed, and ``--save OUT.cdb``
writes every bound result to a new database file.  ``serve`` runs the
long-lived asyncio front end (see ``docs/SERVER.md``): the budget flags
then set the *per-tenant default* budget every request runs under.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import (
    ParseError,
    ReproError,
    ResourceExhausted,
    StaticAnalysisError,
    StorageError,
)
from .exec import EXEC_MODES
from .governor import Budget
from .model import Database
from .query import QuerySession
from .query.lexer import split_statements as _statement_lines
from .storage import load_database, save_database

#: Distinct exit codes so scripts can tell failure classes apart
#: (argparse itself exits 2 on bad usage).
EXIT_ERROR = 1  # any other engine error
EXIT_USAGE = 2
EXIT_PARSE = 3  # query text did not parse
EXIT_BUDGET = 4  # a resource budget was exhausted
EXIT_STORAGE = 5  # database file unreadable, corrupted, or unwritable
#: ``--lint`` reuses exit code 2 for "the script has error-level
#: diagnostics", mirroring the convention of compiler-style linters.
EXIT_LINT = 2


def _budget_from_args(args: argparse.Namespace) -> Budget | None:
    knobs = {
        "deadline_seconds": args.deadline,
        "solver_steps": args.max_solver_steps,
        "dnf_clauses": args.max_dnf_clauses,
        "output_tuples": args.max_output,
        "io_accesses": args.max_io,
    }
    if all(value is None for value in knobs.values()):
        return None
    return Budget(on_exhausted=args.on_exhausted, **knobs)


def _cmd_query(args: argparse.Namespace) -> int:
    database = load_database(Path(args.database))
    if args.expression:
        script = "\n".join(args.expression)
    elif args.script:
        script = Path(args.script).read_text(encoding="utf-8")
    else:
        print("error: provide a script file or -e statements", file=sys.stderr)
        return 2
    session = QuerySession(
        database,
        use_optimizer=not args.no_optimizer,
        budget=_budget_from_args(args),
        analysis=args.analysis,
        exec_mode=args.exec_mode,
    )
    with session:
        return _run_query(session, script, args)


def _run_query(session: QuerySession, script: str, args: argparse.Namespace) -> int:
    if args.lint:
        diagnostics = session.analyze(script)
        print(diagnostics.render())
        return EXIT_LINT if diagnostics.has_errors else 0
    if args.analysis == "warn":
        # Surface the whole script's findings up front; execution below
        # still analyzes per statement (recording last_diagnostics).
        diagnostics = session.analyze(script)
        if diagnostics:
            print(diagnostics.render(), file=sys.stderr)
    if args.explain:
        for _, statement in _statement_lines(script):
            print(f"-- {statement}")
            print(session.explain(statement))
            session.execute(statement)  # later steps need earlier bindings
        return 0
    if args.profile:
        result = None
        for _, statement in _statement_lines(script):
            report = session.explain_analyze(statement)
            result = report.result
            print(report, file=sys.stderr)
            print(file=sys.stderr)
        if result is None:
            print("error: empty script", file=sys.stderr)
            return 2
        print("-- session metrics --", file=sys.stderr)
        print(session.registry.report(), file=sys.stderr)
    else:
        result = session.run_script(script)
    shown = result.simplify() if args.simplify else result
    print(shown.pretty(limit=args.limit))
    if result.truncated:
        print(
            "warning: result truncated (resource budget exhausted; "
            f"{session.budget.summary()})",
            file=sys.stderr,
        )
    if args.save:
        out = Database()
        for name, relation in session.results.items():
            out.add(name, relation)
        save_database(out, args.save)
        print(f"(saved {len(out)} result relations to {args.save})", file=sys.stderr)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from .obs import SERVER_DRAINED, SERVER_REPLIES_OK
    from .server import QueryServer, ServerConfig
    from .storage.wal import open_durable

    # Open durably: recover the WAL into the served catalog, then release
    # the append handle (the server never writes; ``reload`` re-opens).
    source = Path(args.database)
    with open_durable(source) as durable:
        database = durable.database
        recovery = durable.recovery
    if recovery.replayed_records or recovery.truncated_bytes:
        print(
            f"repro-server recovered {args.database}: "
            f"{recovery.committed_transactions} committed transaction(s) replayed, "
            f"{recovery.rolled_back_transactions} rolled back, "
            f"{recovery.truncated_bytes} torn byte(s) truncated",
            flush=True,
        )
    config = ServerConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_queue=args.max_queue,
        exec_mode=args.exec_mode,
        analysis=args.analysis,
        use_optimizer=not args.no_optimizer,
        drain_timeout=args.drain_timeout,
        session_ttl=args.session_ttl,
        deadline_seconds=args.deadline,
        solver_steps=args.max_solver_steps,
        dnf_clauses=args.max_dnf_clauses,
        output_tuples=args.max_output,
        io_accesses=args.max_io,
        on_exhausted=args.on_exhausted,
    )

    async def main() -> int:
        server = QueryServer(database, config, source=source)
        await server.start()
        # The exact bound address on stdout (before anything else) so
        # wrappers and the CI smoke step can scrape an ephemeral port.
        print(
            f"repro-server listening on {server.host}:{server.port} "
            f"(workers={config.workers}, queue={config.max_queue})",
            flush=True,
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except NotImplementedError:  # pragma: no cover - non-Unix loops
                pass
        try:
            # SIGHUP = hot reload, the classic daemon convention: re-read
            # the database file and swap snapshots under live traffic.
            loop.add_signal_handler(signal.SIGHUP, server.reload_soon)
        except (NotImplementedError, AttributeError):  # pragma: no cover
            pass
        await server.serve_until(stop)
        print(
            "repro-server drained cleanly "
            f"(replies={int(server.registry.value(SERVER_REPLIES_OK))}, "
            f"completed during drain={int(server.registry.value(SERVER_DRAINED))})",
            flush=True,
        )
        return 0

    return asyncio.run(main())


def _cmd_ingest(args: argparse.Namespace) -> int:
    """The durable write path from the shell: append/commit mutations
    through the WAL, recover after crashes, checkpoint into the image
    (see docs/DURABILITY.md)."""
    from .storage.wal import open_durable, wal_path_for

    path = Path(args.database)
    puts = args.put or []
    appends = args.append or []
    drops = args.drop or []
    mutating = bool(puts or appends or drops)
    if args.status and mutating:
        print("error: --status does not combine with mutations", file=sys.stderr)
        return EXIT_USAGE

    with open_durable(path, fsync=not args.no_fsync) as durable:
        report = durable.recovery
        if report.records or report.truncated_bytes or args.recover or args.status:
            print(
                f"recovery: {report.records} WAL record(s), "
                f"{report.committed_transactions} committed transaction(s) replayed, "
                f"{report.rolled_back_transactions} rolled back, "
                f"{report.truncated_bytes} torn byte(s) truncated"
            )
        if args.status:
            for name in durable.database:
                print(f"  {name}: {len(durable.database[name])} tuples")
            print(
                f"wal: {wal_path_for(path).name} at {durable.wal.position} bytes, "
                f"{len(durable.wal.records)} record(s) pending checkpoint"
            )
            return 0
        if mutating:
            with durable.begin() as txn:
                for file in puts:
                    source = load_database(Path(file))
                    for name in source:
                        txn.put_relation(name, source[name])
                        print(f"put {name}: {len(source[name])} tuples (from {file})")
                for rel, file in appends:
                    source = load_database(Path(file))
                    txn.append_tuples(rel, list(source[rel]))
                    print(f"append {rel}: +{len(source[rel])} tuples (from {file})")
                for rel in drops:
                    txn.drop_relation(rel)
                    print(f"drop {rel}")
            print("committed (WAL fsynced)" if not args.no_fsync else "committed (no fsync)")
        if (mutating and not args.no_checkpoint) or args.recover:
            durable.checkpoint()
            print(
                f"checkpointed {path.name}: {len(durable.database)} relation(s); WAL reset"
            )
        elif mutating:
            print(
                f"wal: {len(durable.wal.records)} record(s) pending "
                "(run with --recover to fold them into the image)"
            )
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    database = load_database(Path(args.database))
    names = [args.relation] if args.relation else list(database)
    for name in names:
        print(database[name].pretty(limit=args.limit))
        print()
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from .experiments.hurricane_queries import main as hurricane_main

    hurricane_main()
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    import json
    import time

    from .experiments import fig4, fig5

    module = fig4 if args.figure == "fig4" else fig5
    kwargs: dict[str, object] = {}
    if args.data_size is not None:
        kwargs["data_size"] = args.data_size
    if args.query_count is not None:
        kwargs["query_count"] = args.query_count
    started = time.perf_counter()
    result = module.run(**kwargs)
    elapsed = time.perf_counter() - started
    if args.json:
        print(
            json.dumps(
                {
                    "experiment_id": result.experiment_id,
                    "title": result.title,
                    "elapsed_seconds": elapsed,
                    "series": [
                        {
                            "label": series.label,
                            "x_label": series.x_label,
                            "mean_joint": series.mean_joint,
                            "mean_separate": series.mean_separate,
                            "advantage": series.joint_advantage,
                            "points": len(series.measurements),
                        }
                        for series in result.series
                    ],
                    "notes": result.notes,
                },
                indent=2,
            )
        )
    else:
        print(result.format_table())
        print(f"\n(elapsed {elapsed:.2f}s)", file=sys.stderr)
    return 0


def _add_budget_arguments(parser: argparse.ArgumentParser, description: str) -> None:
    """The shared resource-limit flag group (``query`` budgets one
    statement; ``serve`` sets the per-tenant default budget)."""
    limits = parser.add_argument_group("resource limits", description)
    limits.add_argument(
        "--deadline", type=float, metavar="SECONDS", help="wall-clock deadline per statement"
    )
    limits.add_argument(
        "--max-solver-steps", type=int, metavar="N", help="elimination/simplex step budget"
    )
    limits.add_argument(
        "--max-dnf-clauses", type=int, metavar="N", help="DNF distribution/complement clause budget"
    )
    limits.add_argument(
        "--max-output", type=int, metavar="N", help="materialized tuple cap (intermediates included)"
    )
    limits.add_argument(
        "--max-io", type=int, metavar="N", help="simulated IO cap (index node visits + page reads)"
    )
    limits.add_argument(
        "--on-exhausted",
        choices=("raise", "partial"),
        default="raise",
        help="exhaustion behaviour: fail the statement, or keep the tuples "
        "materialized so far and mark the result truncated",
    )


def _cmd_devtools_lint(args: argparse.Namespace) -> int:
    """``repro devtools lint`` — the RT linter over Python sources.

    Exit 0 when no error-severity findings remain after the baseline is
    applied (warnings/infos print but do not gate); otherwise
    ``EXIT_LINT`` (2), the compiler-linter convention ``--lint`` uses.
    """
    from .devtools import Baseline, lint_paths

    select = args.select.split(",") if args.select else None
    if args.write_baseline is not None:
        report = lint_paths(args.paths, select=select)
        baseline = Baseline.from_report(report)
        baseline.write(Path(args.write_baseline))
        print(f"wrote {len(baseline.fingerprints)} fingerprint(s) to {args.write_baseline}")
        return 0
    baseline = Baseline.load(Path(args.baseline)) if args.baseline else Baseline()
    report = lint_paths(args.paths, select=select, baseline=baseline)
    print(report.render())
    return EXIT_LINT if report.has_errors else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CQA/CDB: a rational linear constraint database (ICDE 2003 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    query = commands.add_parser("query", help="run a multi-step CQA script")
    query.add_argument("database", help="a .cdb database file")
    query.add_argument("script", nargs="?", help="a query script file")
    query.add_argument(
        "-e",
        "--expression",
        action="append",
        metavar="STMT",
        help="inline statement (repeatable; used instead of a script file)",
    )
    query.add_argument("--save", metavar="OUT.cdb", help="save all bound results")
    query.add_argument("--limit", type=int, default=20, help="tuples shown per relation")
    query.add_argument("--simplify", action="store_true", help="simplify formulas before printing")
    query.add_argument("--no-optimizer", action="store_true", help="evaluate plans as written")
    query.add_argument(
        "--explain", action="store_true", help="print each statement's optimized plan"
    )
    query.add_argument(
        "--profile",
        action="store_true",
        help="EXPLAIN ANALYZE each statement: per-operator rows/accesses/timings "
        "on stderr, plus a session metrics report",
    )
    query.add_argument(
        "--lint",
        action="store_true",
        help="statically analyze the script and print its diagnostics without "
        "executing it; exits 2 when error-level diagnostics are found "
        "(see docs/STATIC_ANALYSIS.md)",
    )
    query.add_argument(
        "--analysis",
        choices=("off", "warn", "strict"),
        default="off",
        help="analyze each statement before running it: 'warn' records "
        "diagnostics (printed on stderr), 'strict' refuses to execute "
        "statements with error-level diagnostics",
    )
    query.add_argument(
        "--exec-mode",
        choices=EXEC_MODES,
        default=None,
        help="execution flavour: 'columnar' turns on the vectorized fast "
        "path (bit-identical results — see docs/COLUMNAR.md), 'row' forces "
        "it off; defaults to $REPRO_EXEC_MODE or 'auto'",
    )
    _add_budget_arguments(query, "per-statement budget (see docs/QUERY_LANGUAGE.md)")
    query.set_defaults(handler=_cmd_query)

    serve = commands.add_parser(
        "serve", help="run the multi-tenant query server (docs/SERVER.md)"
    )
    serve.add_argument("database", help="a .cdb database file")
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port",
        type=int,
        default=7411,
        help="TCP port (0 picks an ephemeral port, announced on stdout)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="concurrently executing queries (the server's thread pool)",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=8,
        metavar="N",
        help="queries allowed to wait for a worker before the server sheds "
        "with a 429-style 'overloaded' reply",
    )
    serve.add_argument(
        "--exec-mode",
        choices=EXEC_MODES,
        default=None,
        help="execution flavour for every tenant session ('columnar' = the "
        "vectorized fast path; see docs/COLUMNAR.md); defaults to "
        "$REPRO_EXEC_MODE or 'auto'",
    )
    serve.add_argument(
        "--analysis",
        choices=("off", "warn", "strict"),
        default="off",
        help="static-analysis mode applied to every tenant session",
    )
    serve.add_argument("--no-optimizer", action="store_true", help="evaluate plans as written")
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="graceful-shutdown ceiling for in-flight queries",
    )
    serve.add_argument(
        "--session-ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="evict tenant sessions idle longer than this (their bindings "
        "are dropped; the next request re-creates the session)",
    )
    _add_budget_arguments(
        serve,
        "per-tenant default budget applied to every request "
        "(requests may tighten these, never loosen them)",
    )
    serve.set_defaults(handler=_cmd_serve)

    ingest = commands.add_parser(
        "ingest",
        help="write through the WAL: put/append/drop relations durably, "
        "recover after a crash, checkpoint (docs/DURABILITY.md)",
    )
    ingest.add_argument("database", help="the .cdb database file (created if missing)")
    ingest.add_argument(
        "--put",
        action="append",
        metavar="FILE.cdb",
        help="create or replace every relation found in FILE.cdb (repeatable)",
    )
    ingest.add_argument(
        "--append",
        action="append",
        nargs=2,
        metavar=("REL", "FILE.cdb"),
        help="append FILE.cdb's tuples of relation REL to the existing REL "
        "(repeatable)",
    )
    ingest.add_argument(
        "--drop", action="append", metavar="REL", help="drop relation REL (repeatable)"
    )
    ingest.add_argument(
        "--recover",
        action="store_true",
        help="replay the WAL and fold it into the image even without mutations "
        "(recovery itself always runs on open)",
    )
    ingest.add_argument(
        "--status",
        action="store_true",
        help="report the recovered state (relations, pending WAL records) "
        "without mutating anything",
    )
    ingest.add_argument(
        "--no-checkpoint",
        action="store_true",
        help="leave committed records in the WAL instead of folding them "
        "into the image after the transaction",
    )
    ingest.add_argument(
        "--no-fsync",
        action="store_true",
        help="skip fsync barriers (faster, but a machine crash may lose the "
        "commit; a process crash still cannot corrupt the database)",
    )
    ingest.set_defaults(handler=_cmd_ingest)

    show = commands.add_parser("show", help="print relations of a database")
    show.add_argument("database", help="a .cdb database file")
    show.add_argument("relation", nargs="?", help="show one relation only")
    show.add_argument("--limit", type=int, default=20)
    show.set_defaults(handler=_cmd_show)

    demo = commands.add_parser("demo", help="run the Hurricane case study (§3.3)")
    demo.set_defaults(handler=_cmd_demo)

    experiment = commands.add_parser(
        "experiment", help="run a paper experiment (figure 4 or 5)"
    )
    experiment.add_argument("figure", choices=("fig4", "fig5"), help="which figure to run")
    experiment.add_argument(
        "--data-size", type=int, default=None, metavar="N", help="number of data boxes"
    )
    experiment.add_argument(
        "--query-count", type=int, default=None, metavar="N", help="number of queries"
    )
    experiment.add_argument(
        "--json", action="store_true", help="emit the binned series as JSON"
    )
    experiment.set_defaults(handler=_cmd_experiment)

    devtools = commands.add_parser(
        "devtools",
        help="runtime-invariant tooling (RT diagnostics, see docs/DEVTOOLS.md)",
    )
    devtools_actions = devtools.add_subparsers(dest="action", required=True)
    lint = devtools_actions.add_parser(
        "lint", help="AST-lint Python sources for RT1xx-RT4xx violations"
    )
    lint.add_argument(
        "paths", nargs="+", help="Python files or directories (e.g. src/repro)"
    )
    lint.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="JSON baseline of accepted finding fingerprints (missing file "
        "= empty baseline)",
    )
    lint.add_argument(
        "--write-baseline",
        default=None,
        metavar="FILE",
        help="write the current findings as a baseline file and exit 0",
    )
    lint.add_argument(
        "--select",
        default=None,
        metavar="CODES",
        help="comma-separated RT codes to run (default: all rules)",
    )
    lint.set_defaults(handler=_cmd_devtools_lint)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ParseError as exc:
        print(f"error[parse]: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except StaticAnalysisError as exc:
        print(f"error[analysis]: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except ResourceExhausted as exc:
        print(f"error[budget:{exc.resource or 'unknown'}]: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except StorageError as exc:
        print(f"error[storage]: {exc}", file=sys.stderr)
        return EXIT_STORAGE
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except FileNotFoundError as exc:
        print(f"error[storage]: {exc}", file=sys.stderr)
        return EXIT_STORAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
