"""The layered satisfiability front-end: caches, intervals, dispatch.

Every fast-path answer must agree with a fresh Fourier–Motzkin run — the
layers are accelerators, never a second semantics.
"""

from fractions import Fraction

import pytest

from repro.constraints import Conjunction, parse_constraints, solver, var
from repro.constraints import elimination
from repro.constraints.atoms import eq, ge, gt, le, lt
from repro.constraints.cache import InternTable, LRUCache
from repro.obs import (
    MetricsRegistry,
    SATISFIABILITY_CHECKS,
    SOLVER_BOX_DECIDED,
    SOLVER_CACHE_HITS,
    SOLVER_CACHE_MISSES,
    SOLVER_FM_ROUTED,
    SOLVER_INTERVAL_PRUNES,
    SOLVER_JOIN_PRUNES,
    SOLVER_REQUESTS,
    SOLVER_SIMPLEX_ROUTED,
)


def conj(text: str) -> Conjunction:
    return Conjunction(parse_constraints(text))


@pytest.fixture(autouse=True)
def fresh_solver_state():
    solver.clear_caches()
    yield
    solver.clear_caches()


class TestLRUCache:
    def test_get_put_and_counters(self):
        cache: LRUCache[str, int] = LRUCache(4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.hits == 1 and cache.misses == 1

    def test_eviction_is_least_recently_used(self):
        cache: LRUCache[str, int] = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a"; "b" becomes the LRU entry
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.evictions == 1

    def test_capacity_is_respected(self):
        cache: LRUCache[int, int] = LRUCache(8)
        for i in range(50):
            cache.put(i, i)
        assert len(cache) == 8
        assert cache.evictions == 42

    def test_put_updates_value_and_recency(self):
        cache: LRUCache[str, int] = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # refreshes "a"
        cache.put("c", 3)  # evicts "b"
        assert cache.get("a") == 10
        assert cache.get("b") is None

    def test_caches_false_values(self):
        cache: LRUCache[str, bool] = LRUCache(2)
        cache.put("k", False)
        assert cache.get("k") is False  # False is a hit, not a miss


class TestInterning:
    def test_equal_atoms_intern_to_one_object(self):
        a = le(var("x") + var("y"), 3)
        b = le(var("x") + var("y"), 3)
        assert a is not b
        assert solver.intern_atom(a) is solver.intern_atom(b)

    def test_conjunction_atoms_are_interned(self):
        c1 = conj("x + y <= 3, x >= 1")
        c2 = conj("x >= 1, x + y <= 3")
        assert all(x is y for x, y in zip(c1.atoms, c2.atoms))

    def test_intern_table_epoch_clear(self):
        table: InternTable[str] = InternTable(capacity=2)
        first = table.intern("aa")
        table.intern("bb")
        table.intern("cc")  # exceeds capacity: table restarts
        assert len(table) <= 2
        assert table.intern("aa") == first  # equality survives, identity may not

    def test_cache_key_is_order_insensitive_and_deduplicated(self):
        atoms1 = (le(var("x"), 1), ge(var("y"), 0), le(var("x"), 1))
        atoms2 = (ge(var("y"), 0), le(var("x"), 1))
        assert solver.cache_key(atoms1) == solver.cache_key(atoms2)


class TestIntervalSummary:
    def test_bounds_harvested_from_single_variable_atoms(self):
        summary = solver.summarise(conj("x >= 1, x < 5, y <= 2").atoms)
        assert summary.bounds["x"] == (Fraction(1), False, Fraction(5), True)
        assert summary.bounds["y"] == (None, False, Fraction(2), False)
        assert summary.pure_box and not summary.inconsistent

    def test_equality_pins_both_sides(self):
        summary = solver.summarise((eq(var("x"), 3),))
        assert summary.bounds["x"] == (Fraction(3), False, Fraction(3), False)

    def test_empty_interval_is_inconsistent(self):
        summary = solver.summarise(conj("x >= 2, x < 2").atoms)
        assert summary.inconsistent

    def test_multi_variable_atom_clears_pure_box(self):
        summary = solver.summarise(conj("x + y <= 1, x >= 0").atoms)
        assert not summary.pure_box
        assert list(summary.bounds) == ["x"]  # only single-variable atoms contribute

    def test_disjoint_summaries_are_fm_unsatisfiable(self):
        # Soundness: whenever the interval layer prunes a join pair, the
        # combined system must really be unsatisfiable.
        left = conj("x >= 0, x <= 1, y >= 0, y <= 1")
        right = conj("y >= 3, y <= 4, z <= 0")
        assert solver.summaries_disjoint(left.interval_summary(), right.interval_summary())
        assert not elimination.is_satisfiable(left.atoms + right.atoms)

    def test_overlapping_summaries_not_disjoint(self):
        left = conj("x >= 0, x <= 2")
        right = conj("x >= 1, x <= 3")
        assert not solver.summaries_disjoint(
            left.interval_summary(), right.interval_summary()
        )


class TestLayeredIsSatisfiable:
    def test_interval_prune_answers_without_full_solve(self):
        registry = MetricsRegistry()
        with registry.activate():
            verdict = solver.is_satisfiable(conj("x > 1, x < 1").atoms)
        assert verdict is False
        assert registry.value(SOLVER_INTERVAL_PRUNES) == 1
        assert registry.value(SATISFIABILITY_CHECKS) == 0

    def test_pure_box_answers_without_full_solve(self):
        registry = MetricsRegistry()
        with registry.activate():
            verdict = solver.is_satisfiable(conj("x >= 0, y <= 5").atoms)
        assert verdict is True
        assert registry.value(SOLVER_BOX_DECIDED) == 1
        assert registry.value(SATISFIABILITY_CHECKS) == 0

    def test_repeat_requests_hit_the_cache(self):
        atoms = conj("x + y <= 3, x - y >= 1").atoms
        registry = MetricsRegistry()
        with registry.activate():
            first = solver.is_satisfiable(atoms)
            second = solver.is_satisfiable(tuple(reversed(atoms)))
        assert first is second is True
        assert registry.value(SOLVER_CACHE_MISSES) == 1
        assert registry.value(SOLVER_CACHE_HITS) == 1
        assert registry.value(SATISFIABILITY_CHECKS) == 1  # solved once

    def test_small_systems_route_to_fourier_motzkin(self):
        registry = MetricsRegistry()
        with registry.activate():
            solver.is_satisfiable(conj("x + y <= 3").atoms)
        assert registry.value(SOLVER_FM_ROUTED) == 1
        assert registry.value(SOLVER_SIMPLEX_ROUTED) == 0

    def test_many_variable_systems_route_to_simplex(self):
        atoms = tuple(
            le(var("x") + var(f"v{i}"), i) for i in range(6)
        )  # 7 variables >= threshold
        registry = MetricsRegistry()
        with registry.activate():
            verdict = solver.is_satisfiable(atoms)
        assert verdict is True
        assert registry.value(SOLVER_SIMPLEX_ROUTED) == 1
        assert registry.value(SATISFIABILITY_CHECKS) == 1

    def test_fast_path_off_is_plain_fourier_motzkin(self):
        # The layer-free reference is plain Fourier–Motzkin: every call is
        # a full solve.  The layered front-end gives the same verdicts
        # while deciding this pure box without one.
        atoms = conj("x >= 0, x <= 1").atoms
        reference_registry = MetricsRegistry()
        with reference_registry.activate():
            reference = [elimination.is_satisfiable(atoms) for _ in range(2)]
        assert reference_registry.value(SATISFIABILITY_CHECKS) == 2
        assert reference_registry.value(SOLVER_CACHE_HITS) == 0
        assert reference_registry.value(SOLVER_BOX_DECIDED) == 0
        registry = MetricsRegistry()
        with registry.activate():
            layered = [solver.is_satisfiable(atoms) for _ in range(2)]
        assert layered == reference == [True, True]
        assert registry.value(SOLVER_REQUESTS) == 2
        assert registry.value(SOLVER_BOX_DECIDED) == 2
        assert registry.value(SATISFIABILITY_CHECKS) == 0

    def test_join_prunable_records_and_is_gated(self):
        left = conj("x <= 0").interval_summary()
        right = conj("x >= 1").interval_summary()
        overlapping = conj("x >= -1").interval_summary()
        registry = MetricsRegistry()
        with registry.activate():
            assert solver.join_prunable(left, right)
            # Only provably disjoint pairs are pruned (and recorded).
            assert not solver.join_prunable(left, overlapping)
        assert registry.value(SOLVER_JOIN_PRUNES) == 1

    def test_configure_cache_size_clears_and_bounds(self):
        original = solver.get_config()
        try:
            solver.configure(cache_size=4)
            for i in range(10):
                solver.is_satisfiable((le(var("x") + var("y"), i), ge(var("x"), i)))
            assert solver.cache_info()["size"] <= 4
        finally:
            solver.configure(cache_size=original.cache_size)

    def test_fast_path_answers_agree_with_fresh_fm(self):
        systems = [
            "x > 1, x < 1",
            "x >= 1, x <= 1",
            "x >= 0, y <= 5",
            "x + y <= 3, x - y >= 1",
            "x + y <= 0, x >= 1, y >= 1",
            "x = 2, x < 2",
        ]
        solver.clear_caches()
        for _ in range(2):  # cold, then answered from the memo cache
            for text in systems:
                atoms = conj(text).atoms
                assert solver.is_satisfiable(atoms) == elimination.is_satisfiable(atoms), text


class TestRegressions:
    def test_variable_bounds_strict_vs_equality_corner(self):
        # x < 1 ∧ x = 1 is empty; the bound sweep must not let the
        # equality's non-strict bound loosen the strict one.
        with pytest.raises(ValueError):
            elimination.variable_bounds((lt(var("x"), 1), eq(var("x"), 1)), "x")

    def test_variable_bounds_still_tightest(self):
        lower, ls, upper, us = elimination.variable_bounds(
            conj("x >= 1, x > 0, x <= 5, x < 7").atoms, "x"
        )
        assert (lower, ls, upper, us) == (Fraction(1), False, Fraction(5), False)

    def test_conjunction_simplify_single_sweep_equivalent(self):
        original = conj("x >= 0, x >= 1, x <= 5, x <= 5, x + y <= 10")
        simplified = original.simplify()
        assert simplified.equivalent(original)
        assert len(simplified) < len(original)

    def test_unsatisfiable_conjunction_simplifies_to_false(self):
        assert conj("x > 1, x < 0").simplify() == Conjunction.false()

    def test_entailment_through_solver(self):
        band = conj("x >= 1, x <= 2")
        assert band.entails(gt(var("x"), 0))
        assert not band.entails(gt(var("x"), 1))
