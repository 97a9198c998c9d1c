"""Property tests for the layered satisfiability front-end.

The layered solver (intervals → memo cache → adaptive dispatch) must give
the *same verdict* as a fresh Fourier–Motzkin run and as the exact simplex
on every system — including the strict-inequality and equality-only
corners where interval bookkeeping is easiest to get wrong — and must not
change the result of any algebra operation.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.operators import natural_join
from repro.constraints import Conjunction, solver
from repro.constraints import elimination, simplex
from repro.constraints.atoms import Comparator, LinearConstraint, eq, ge, lt
from repro.constraints.terms import LinearExpression, var
from repro.model.relation import ConstraintRelation
from repro.model.schema import Schema, constraint
from repro.model.tuples import HTuple
from tests.conftest import conjunctions, linear_atoms

SETTINGS = settings(max_examples=120, deadline=None)

_small_rationals = st.builds(
    Fraction,
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=1, max_value=3),
)


@st.composite
def strict_heavy_atoms(draw):
    """Single-variable atoms biased towards strict comparators and shared
    bounds — the regime where strict-vs-non-strict merging matters."""
    variable = draw(st.sampled_from(["x", "y"]))
    bound = draw(_small_rationals)
    comparator = draw(
        st.sampled_from([Comparator.LT, Comparator.LE, Comparator.LT, Comparator.EQ])
    )
    sign = draw(st.sampled_from([1, -1]))
    expression = LinearExpression({variable: Fraction(sign)}, -bound * sign)
    return LinearConstraint(expression, comparator)


@st.composite
def equality_only_systems(draw):
    atoms = draw(
        st.lists(
            st.builds(
                eq,
                st.sampled_from([var("x"), var("y"), var("x") + var("y")]),
                _small_rationals,
            ),
            min_size=1,
            max_size=4,
        )
    )
    return tuple(atoms)


class TestLayeredAgreement:
    @SETTINGS
    @given(conjunctions())
    def test_agrees_with_fresh_fm_and_simplex(self, conjunction: Conjunction):
        layered = solver.is_satisfiable(conjunction.atoms)
        assert layered == elimination.is_satisfiable(conjunction.atoms)
        assert layered == simplex.is_satisfiable(conjunction.atoms)

    @SETTINGS
    @given(st.lists(strict_heavy_atoms(), min_size=0, max_size=6))
    def test_strict_inequality_corners(self, atoms):
        atoms = tuple(atoms)
        assert solver.is_satisfiable(atoms) == elimination.is_satisfiable(atoms)

    @SETTINGS
    @given(equality_only_systems())
    def test_equality_only_systems(self, atoms):
        assert solver.is_satisfiable(atoms) == elimination.is_satisfiable(atoms)

    @SETTINGS
    @given(conjunctions())
    def test_cached_verdict_is_stable(self, conjunction: Conjunction):
        first = solver.is_satisfiable(conjunction.atoms)
        second = solver.is_satisfiable(conjunction.atoms)  # likely a cache hit
        assert first == second

    @SETTINGS
    @given(st.lists(linear_atoms(), min_size=0, max_size=4))
    def test_interval_prune_is_sound(self, atoms):
        summary = solver.summarise(atoms)
        if summary.inconsistent:
            assert not elimination.is_satisfiable(atoms)
        elif summary.pure_box:
            assert elimination.is_satisfiable(atoms)

    @SETTINGS
    @given(conjunctions(), conjunctions())
    def test_join_prune_is_sound(self, left: Conjunction, right: Conjunction):
        if solver.summaries_disjoint(left.interval_summary(), right.interval_summary()):
            assert not elimination.is_satisfiable(left.atoms + right.atoms)


def _interval_relation(bounds: list[tuple[Fraction, Fraction]], attr: str):
    schema = Schema([constraint(attr)])
    tuples = [
        HTuple(schema, {}, Conjunction([ge(var(attr), lo), lt(var(attr), hi)]))
        for lo, hi in bounds
        if lo < hi
    ]
    return ConstraintRelation(schema, tuples)


class TestAlgebraInvariance:
    @SETTINGS
    @given(
        st.lists(st.tuples(_small_rationals, _small_rationals), min_size=0, max_size=6),
        st.lists(st.tuples(_small_rationals, _small_rationals), min_size=0, max_size=6),
    )
    def test_join_results_identical_with_fast_path_on_and_off(self, lb, rb):
        on = natural_join(_interval_relation(lb, "x"), _interval_relation(rb, "x"))
        # The reference join: no interval pre-filter, and every
        # satisfiability question answered by plain Fourier–Motzkin.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solver, "join_prunable", lambda left, right: False)
            patch.setattr(
                solver,
                "is_satisfiable",
                lambda atoms, summary=None: elimination.is_satisfiable(tuple(atoms)),
            )
            off = natural_join(_interval_relation(lb, "x"), _interval_relation(rb, "x"))
        assert set(on) == set(off)

    @SETTINGS
    @given(conjunctions())
    def test_simplify_preserves_meaning(self, conjunction: Conjunction):
        simplified = conjunction.simplify()
        if conjunction.is_satisfiable():
            assert simplified.equivalent(conjunction)
        else:
            assert simplified == Conjunction.false()

    @SETTINGS
    @given(st.lists(strict_heavy_atoms(), min_size=1, max_size=5))
    def test_variable_bounds_matches_satisfiability(self, atoms):
        atoms = tuple(atoms)
        satisfiable = elimination.is_satisfiable(atoms)
        for variable in {v for a in atoms for v in a.variables}:
            try:
                lower, _, upper, _ = elimination.variable_bounds(atoms, variable)
            except ValueError:
                assert not satisfiable
            else:
                assert satisfiable
                if lower is not None and upper is not None:
                    assert lower <= upper
