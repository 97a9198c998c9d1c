"""Unit tests for the columnar fast path's plumbing.

The bit-identity and soundness *contracts* live in
``tests/property/test_columnar_{identical,soundness}.py``; this file
covers the machinery around them — mode parsing and the env-var default,
the thread-local activation stack, block construction and caching,
selection-plan compilation and its bypass rules, counter recording, and
the end-to-end ``exec_mode`` knob on sessions, the CLI, and the server
config.
"""

import threading

import pytest

from repro.algebra.operators import filter_tuples
from repro.constraints import parse_constraints
from repro.exec import (
    EXEC_MODE_ENV_VAR,
    EXEC_MODES,
    columnar,
    columnar_active,
    columnar_mode,
    default_exec_mode,
    uses_columnar,
)
from repro.model.database import Database
from repro.obs import (
    COLUMNAR_BATCHES,
    COLUMNAR_BYPASSED,
    COLUMNAR_FALLBACK,
    COLUMNAR_FILTERED,
    MetricsRegistry,
)
from repro.query import QuerySession
from repro.server import ServerConfig
from repro.workloads import build_constraint_relation, generate_data


def _relation(size=40, seed=7):
    return build_constraint_relation(generate_data(size, seed))


class TestModeParsing:
    def test_modes_are_auto_row_columnar(self):
        assert EXEC_MODES == ("auto", "row", "columnar")

    def test_row_and_auto_keep_columnar_off(self):
        assert not uses_columnar("auto")
        assert not uses_columnar("row")

    def test_columnar_turns_it_on(self):
        assert uses_columnar("columnar")

    def test_rejects_unknown(self):
        for mode in ("simd", "process", "thread"):
            with pytest.raises(ValueError, match="exec_mode"):
                uses_columnar(mode)

    def test_default_is_auto_without_env(self, monkeypatch):
        monkeypatch.delenv(EXEC_MODE_ENV_VAR, raising=False)
        assert default_exec_mode() == "auto"

    def test_default_reads_env(self, monkeypatch):
        monkeypatch.setenv(EXEC_MODE_ENV_VAR, "columnar")
        assert default_exec_mode() == "columnar"
        monkeypatch.setenv(EXEC_MODE_ENV_VAR, "  ROW ")
        assert default_exec_mode() == "row"

    def test_default_rejects_invalid_env(self, monkeypatch):
        monkeypatch.setenv(EXEC_MODE_ENV_VAR, "simd")
        with pytest.raises(ValueError, match=EXEC_MODE_ENV_VAR):
            default_exec_mode()


class TestActivationStack:
    def test_off_by_default(self):
        assert not columnar_active()

    def test_nesting_and_explicit_deactivation(self):
        with columnar_mode():
            assert columnar_active()
            with columnar_mode():
                assert columnar_active()
            assert columnar_active()
            with columnar_mode(False):
                assert not columnar_active()
            assert columnar_active()
        assert not columnar_active()

    def test_thread_locality(self):
        seen = {}

        def probe():
            seen["active"] = columnar_active()

        with columnar_mode():
            worker = threading.Thread(target=probe)
            worker.start()
            worker.join()
        assert seen["active"] is False


class TestBlocksAndPlans:
    def test_block_shape_and_bounds(self):
        relation = _relation()
        tuples = list(relation.tuples)
        block = columnar.block_for(tuples, ("x", "y"))
        assert len(block) == len(tuples)
        assert block.lower.shape == (len(tuples), 2)
        assert (block.lower <= block.upper)[~block.inconsistent].all()

    def test_block_cache_hit_and_staleness(self):
        relation = _relation()
        tuples = list(relation.tuples)
        cache = {}
        block = columnar.block_for(tuples, ("x",), cache=cache)
        assert columnar.block_for(tuples, ("x",), cache=cache) is block
        # A different variable tuple is a different cache entry.
        other = columnar.block_for(tuples, ("x", "y"), cache=cache)
        assert other is not block
        # A stale entry (row count changed) is rebuilt, not served.
        rebuilt = columnar.block_for(tuples[:10], ("x",), cache=cache)
        assert rebuilt is not block and len(rebuilt) == 10

    def test_relation_owns_a_columnar_cache(self):
        relation = _relation()
        cache = relation.columnar_cache()
        assert cache == {} and relation.columnar_cache() is cache

    def test_plan_compiles_box_predicates(self):
        relation = _relation()
        plan = columnar.selection_plan(
            parse_constraints("x >= 10, x <= 600, y >= 10"), relation.schema
        )
        assert plan is not None and not plan.empty
        assert plan.variables == ("x", "y")

    def test_plan_bypasses_without_static_atoms(self):
        relation = _relation()
        assert columnar.selection_plan((), relation.schema) is None

    def test_plan_bypasses_relational_atoms(self):
        # Atoms over relational attributes are substituted per tuple, so
        # they carry no static bounds for the filter to broadcast.
        from repro.model.schema import Attribute, AttributeKind, DataType, Schema

        schema = Schema(
            [
                Attribute("v", DataType.RATIONAL, AttributeKind.RELATIONAL),
                Attribute("x", DataType.RATIONAL, AttributeKind.CONSTRAINT),
            ]
        )
        plan = columnar.selection_plan(parse_constraints("v >= 0"), schema)
        assert plan is None

    def test_plan_bypasses_multivariable_only_atoms(self):
        relation = _relation()
        plan = columnar.selection_plan(
            parse_constraints("x + y >= 100"), relation.schema
        )
        assert plan is None

    def test_inconsistent_statics_compile_to_empty_plan(self):
        relation = _relation()
        plan = columnar.selection_plan(
            parse_constraints("x >= 10, x <= 5"), relation.schema
        )
        assert plan is not None and plan.empty


class TestCounters:
    def test_filter_records_batches_filtered_fallback(self):
        relation = _relation(size=60, seed=3)
        predicates = parse_constraints("x >= 200, x <= 400")
        registry = MetricsRegistry()
        with registry.activate(), columnar_mode():
            result = filter_tuples(list(relation.tuples), predicates)
        assert registry.value(COLUMNAR_BATCHES) >= 1
        filtered = registry.value(COLUMNAR_FILTERED)
        fallback = registry.value(COLUMNAR_FALLBACK)
        assert filtered + fallback == len(relation.tuples)
        assert len(result) <= fallback

    def test_unplannable_predicates_record_bypass(self):
        relation = _relation(size=60, seed=3)
        predicates = parse_constraints("x + y >= 100")
        registry = MetricsRegistry()
        with registry.activate(), columnar_mode():
            filter_tuples(list(relation.tuples), predicates)
        assert registry.value(COLUMNAR_BYPASSED) >= 1
        assert registry.value(COLUMNAR_BATCHES) == 0

    def test_small_batches_do_not_engage(self):
        relation = _relation(size=columnar.MIN_BATCH - 1, seed=3)
        predicates = parse_constraints("x >= 200")
        registry = MetricsRegistry()
        with registry.activate(), columnar_mode():
            filter_tuples(list(relation.tuples), predicates)
        assert registry.value(COLUMNAR_BATCHES) == 0


class TestSessionKnob:
    def _database(self):
        return Database({"boxes": _relation(size=50, seed=11).with_name("boxes")})

    def test_exec_mode_property_and_validation(self):
        with QuerySession(self._database(), exec_mode="columnar") as session:
            assert session.exec_mode == "columnar"
        for mode in ("simd", "process", "thread"):
            with pytest.raises(ValueError, match="exec_mode"):
                QuerySession(self._database(), exec_mode=mode)

    def test_env_var_default(self, monkeypatch):
        monkeypatch.setenv(EXEC_MODE_ENV_VAR, "columnar")
        with QuerySession(self._database()) as session:
            assert session.exec_mode == "columnar"

    def test_columnar_session_runs_queries(self):
        with QuerySession(self._database(), exec_mode="columnar") as session:
            result = session.run_script("hits = select x >= 100, x <= 700 from boxes")
        assert result.name == "hits"


class TestServerKnob:
    def test_config_accepts_every_mode(self):
        for mode in EXEC_MODES:
            assert ServerConfig(exec_mode=mode).exec_mode == mode
        assert ServerConfig().exec_mode is None

    def test_config_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="exec_mode"):
            ServerConfig(exec_mode="simd")


class TestCliKnob:
    def test_query_and_serve_expose_exec_mode(self):
        from repro.cli import build_parser

        parser = build_parser()
        for argv in (
            ["query", "--exec-mode", "columnar", "db.json", "script.cq"],
            ["serve", "--exec-mode", "row", "db.json"],
        ):
            try:
                args = parser.parse_args(argv)
            except SystemExit as exc:  # argparse rejected the flag/layout
                pytest.fail(f"CLI rejected {argv}: {exc}")
            assert args.exec_mode in EXEC_MODES
