"""Property tests: columnar execution is bit-identical to row execution.

The columnar fast path's contract (docs/COLUMNAR.md): for every workload
and every operator, the vectorized filter-then-refine path returns *the
same relation* as the row path — same tuples in the same order, same
truncation point in partial mode, and the same governed-failure taxonomy.
These tests drive that contract over random rectangle workloads.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.operators import select
from repro.constraints import parse_constraints
from repro.errors import ResourceExhausted
from repro.exec import columnar_mode
from repro.governor import Budget
from repro.model.database import Database
from repro.query import QuerySession
from repro.spatial.buffer_join import buffer_join
from repro.spatial.features import Feature, FeatureSet
from repro.spatial.geometry import Point
from repro.spatial.k_nearest import k_nearest
from repro.spatial.polygon import ConvexPolygon
from repro.workloads import build_constraint_relation, generate_data

SETTINGS = settings(max_examples=15, deadline=None)


def _relations_identical(a, b):
    assert list(a.tuples) == list(b.tuples)
    assert a.truncated == b.truncated
    assert a.schema == b.schema


def _rect_features(count: int, seed: int) -> FeatureSet:
    import random

    rng = random.Random(seed)
    features = []
    for i in range(count):
        x = Fraction(rng.randint(0, 900), rng.randint(1, 4))
        y = Fraction(rng.randint(0, 900), rng.randint(1, 4))
        w = Fraction(rng.randint(1, 40), 1)
        h = Fraction(rng.randint(1, 40), 1)
        poly = ConvexPolygon(
            [Point(x, y), Point(x + w, y), Point(x + w, y + h), Point(x, y + h)]
        )
        features.append(Feature(f"f{i:03d}", [poly]))
    return FeatureSet(features)


def _multipart_features(count: int, seed: int) -> FeatureSet:
    """Features with enough convex parts that the part-pair matrix crosses
    the columnar batch threshold inside ``Feature.distance``."""
    import random

    rng = random.Random(seed)
    features = []
    for i in range(count):
        parts = []
        for _ in range(rng.randint(4, 6)):
            x = Fraction(rng.randint(0, 400), rng.randint(1, 3))
            y = Fraction(rng.randint(0, 400), rng.randint(1, 3))
            w = Fraction(rng.randint(1, 25))
            h = Fraction(rng.randint(1, 25))
            parts.append(
                ConvexPolygon(
                    [Point(x, y), Point(x + w, y), Point(x + w, y + h), Point(x, y + h)]
                )
            )
        features.append(Feature(f"m{i:03d}", parts))
    return FeatureSet(features)


class TestSelectIdentical:
    @SETTINGS
    @given(
        seed=st.integers(0, 10_000),
        size=st.integers(20, 60),
        lo=st.integers(0, 400),
        width=st.integers(50, 600),
    )
    def test_row_vs_columnar(self, seed, size, lo, width):
        relation = build_constraint_relation(generate_data(size, seed))
        predicates = parse_constraints(
            f"x >= {lo}, x <= {lo + width}, y >= {lo}, y <= {lo + width}"
        )
        row = select(relation, predicates)
        with columnar_mode():
            col = select(relation, predicates)
        _relations_identical(row, col)

    @SETTINGS
    @given(seed=st.integers(0, 10_000), cap=st.integers(1, 30))
    def test_partial_truncation_point_identical(self, seed, cap):
        relation = build_constraint_relation(generate_data(40, seed))
        predicates = parse_constraints("x >= 0, x <= 900, y >= 0, y <= 900")

        def run(columnar_on):
            budget = Budget(output_tuples=cap, on_exhausted="partial")
            with columnar_mode(columnar_on), budget.activate():
                return select(relation, predicates), budget

        row, row_budget = run(False)
        col, col_budget = run(True)
        _relations_identical(row, col)
        assert row_budget.truncated == col_budget.truncated

    @SETTINGS
    @given(seed=st.integers(0, 10_000), steps=st.integers(1, 40))
    def test_exhaustion_taxonomy_identical(self, seed, steps):
        relation = build_constraint_relation(generate_data(40, seed))
        # Multi-attribute conjuncts defeat the interval fast path (and the
        # columnar mask, which is built from the same single-variable
        # bounds), so the full solver runs and the step budget bites at
        # the same tuple in both modes.
        predicates = parse_constraints("x + y >= 100, x - y <= 800")

        def run(columnar_on):
            budget = Budget(solver_steps=steps)
            try:
                with columnar_mode(columnar_on), budget.activate():
                    return select(relation, predicates), None
            except ResourceExhausted as exc:
                return None, (type(exc).__name__, exc.resource)

        row_result, row_failure = run(False)
        col_result, col_failure = run(True)
        assert row_failure == col_failure
        if row_result is not None:
            _relations_identical(row_result, col_result)


class TestSpatialIdentical:
    @SETTINGS
    @given(seed=st.integers(0, 10_000), distance=st.integers(5, 120))
    def test_buffer_join(self, seed, distance):
        row_set = _rect_features(30, seed)
        row = buffer_join(row_set, row_set, distance)
        fresh = _rect_features(30, seed)
        with columnar_mode():
            col = buffer_join(fresh, fresh, distance)
        _relations_identical(row, col)

    @SETTINGS
    @given(seed=st.integers(0, 10_000), distance=st.integers(20, 200))
    def test_buffer_join_multipart(self, seed, distance):
        # Multi-part features drive the vectorized Feature.distance kernel
        # (part-pair matrix >= the batch threshold).
        row_set = _multipart_features(12, seed)
        row = buffer_join(row_set, row_set, distance)
        fresh = _multipart_features(12, seed)
        with columnar_mode():
            col = buffer_join(fresh, fresh, distance)
        _relations_identical(row, col)

    @SETTINGS
    @given(seed=st.integers(0, 10_000), k=st.integers(1, 12))
    def test_k_nearest(self, seed, k):
        row_set = _rect_features(30, seed)
        row = k_nearest(row_set, row_set["f000"], k)
        fresh = _rect_features(30, seed)
        with columnar_mode():
            col = k_nearest(fresh, fresh["f000"], k)
        _relations_identical(row, col)

    @SETTINGS
    @given(seed=st.integers(0, 10_000), k=st.integers(1, 8))
    def test_k_nearest_multipart(self, seed, k):
        row_set = _multipart_features(12, seed)
        row = k_nearest(row_set, row_set["m000"], k)
        fresh = _multipart_features(12, seed)
        with columnar_mode():
            col = k_nearest(fresh, fresh["m000"], k)
        _relations_identical(row, col)

    @SETTINGS
    @given(seed=st.integers(0, 10_000), cap=st.integers(1, 20))
    def test_buffer_join_truncation_identical(self, seed, cap):
        def run(columnar_on):
            features = _rect_features(30, seed)
            budget = Budget(output_tuples=cap, on_exhausted="partial")
            with columnar_mode(columnar_on), budget.activate():
                return buffer_join(features, features, 60), budget

        row, row_budget = run(False)
        col, col_budget = run(True)
        _relations_identical(row, col)
        assert row_budget.truncated == col_budget.truncated


class TestSessionIdentical:
    """Whole-session parity: exec_mode="columnar" vs the default row mode."""

    SCRIPT = (
        "inside = select x >= 100, x <= 700, y >= 100, y <= 700 from boxes\n"
        "narrow = select x + y >= 300 from inside\n"
    )

    def _database(self):
        relation = build_constraint_relation(generate_data(80, seed=23)).with_name("boxes")
        return Database({"boxes": relation})

    def _run_session(self, exec_mode):
        with QuerySession(self._database(), exec_mode=exec_mode) as session:
            result = session.run_script(self.SCRIPT)
            bound = dict(session.results)
        return result, bound

    def test_script_results_match(self):
        row_result, row_bound = self._run_session("row")
        col_result, col_bound = self._run_session("columnar")
        _relations_identical(row_result, col_result)
        assert row_bound.keys() == col_bound.keys()
        for name in row_bound:
            _relations_identical(row_bound[name], col_bound[name])

    def test_columnar_counters_surface_in_explain_analyze(self):
        with QuerySession(self._database(), exec_mode="columnar") as session:
            report = session.explain_analyze(
                "inside = select x >= 100, x <= 700 from boxes"
            )
        line = report.columnar_summary()
        assert line is not None and "columnar:" in line
        assert "hit_rate=" in line
        assert line in report.format()

    def test_row_session_reports_no_columnar_line(self):
        with QuerySession(self._database(), exec_mode="row") as session:
            report = session.explain_analyze(
                "inside = select x >= 100, x <= 700 from boxes"
            )
        assert report.columnar_summary() is None
