"""A/B benchmark: row vs columnar selection (repro.exec.columnar).

Two contracts on a scan-filter microbench (``select`` over a generated
box relation with selective interval predicates):

* **columnar speedup** — with the relation's summary block warmed (the
  steady state for repeated scans of an immutable relation, since blocks
  are cached on the relation keyed by variable tuple), the vectorized
  mask must beat the tuple-at-a-time exact interval path by ≥ 5× at
  paper scale.  The mask rejects a batch with a handful of numpy
  comparisons; row mode pays a per-tuple exact rational check.
* **bypass overhead** — when the filter cannot engage (predicates with
  no single-variable static bounds compile to no plan), columnar mode
  must cost < 3% over row mode: the probe is one thread-local peek plus
  one failed plan compilation per call.

Arms are timed best-of-``_ROUNDS`` interleaved: best-of-N measures each
arm's achievable floor rather than the average of its interruptions.
Results land in ``BENCH_columnar.json`` (override with
``REPRO_BENCH_COLUMNAR_JSON``) so CI can archive them.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.algebra.operators import select
from repro.constraints import parse_constraints
from repro.exec import columnar_mode
from repro.workloads import build_constraint_relation, generate_data

_ROUNDS = 3

#: Selective box predicates: the columnar mask rejects almost every
#: tuple, which is the case the fast path exists for.
_SELECTIVE = "x >= 450, x <= 550, y >= 450, y <= 550"

#: No single-variable static bounds → ``selection_plan`` returns None
#: and the columnar probe bypasses to the row loop every call.
_UNPLANNABLE = "x + y >= 0"


def _time_select(relation, predicates, columnar_on: bool) -> float:
    with columnar_mode(columnar_on):
        start = time.perf_counter()
        result = select(relation, predicates)
        elapsed = time.perf_counter() - start
    assert result.schema == relation.schema  # the select actually ran
    return elapsed


@pytest.fixture(scope="module")
def columnar_results(scale) -> dict:
    relation = build_constraint_relation(generate_data(scale.data_size, seed=42))
    selective = parse_constraints(_SELECTIVE)
    unplannable = parse_constraints(_UNPLANNABLE)

    # Warm both arms: row mode's solver caches, columnar's summary block
    # (cached on the relation, so every timed columnar run is steady
    # state), and check the arms agree before timing them.
    row_out = select(relation, selective)
    with columnar_mode():
        col_out = select(relation, selective)
    assert list(row_out.tuples) == list(col_out.tuples)

    row, col, row_bypass, col_bypass = [], [], [], []
    for _ in range(_ROUNDS):
        row.append(_time_select(relation, selective, False))
        col.append(_time_select(relation, selective, True))
        row_bypass.append(_time_select(relation, unplannable, False))
        col_bypass.append(_time_select(relation, unplannable, True))

    best_row, best_col = min(row), min(col)
    best_row_bypass, best_col_bypass = min(row_bypass), min(col_bypass)
    results = {
        "workload": f"select scan-filter ({scale.name} scale, {scale.data_size} tuples)",
        "rounds": _ROUNDS,
        "selective_predicates": _SELECTIVE,
        "unplannable_predicates": _UNPLANNABLE,
        "row_best_seconds": best_row,
        "columnar_best_seconds": best_col,
        "speedup": best_row / best_col,
        "row_bypass_best_seconds": best_row_bypass,
        "columnar_bypass_best_seconds": best_col_bypass,
        "bypass_overhead_fraction": best_col_bypass / best_row_bypass - 1.0,
    }
    path = os.environ.get("REPRO_BENCH_COLUMNAR_JSON", "BENCH_columnar.json")
    with open(path, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
    return results


def test_columnar_speedup(columnar_results, scale):
    """≥ 5× on the warmed scan-filter microbench at paper scale.

    At small scale (CI smoke) the fixed per-call costs dominate the
    tiny batch, so only a ≥ 2× floor is asserted; the exact A/B numbers
    still land in BENCH_columnar.json either way."""
    floor = 5.0 if scale.name == "paper" else 2.0
    assert columnar_results["speedup"] >= floor, columnar_results


def test_bypass_overhead_is_negligible(columnar_results):
    """When the filter cannot engage, columnar mode must be free
    (< 3%): one thread-local peek and one rejected plan compilation."""
    assert columnar_results["bypass_overhead_fraction"] < 0.03, columnar_results


def test_columnar_select(benchmark, scale):
    relation = build_constraint_relation(generate_data(scale.data_size, seed=42))
    predicates = parse_constraints(_SELECTIVE)
    with columnar_mode():
        select(relation, predicates)  # warm the summary block
        benchmark(lambda: select(relation, predicates))
