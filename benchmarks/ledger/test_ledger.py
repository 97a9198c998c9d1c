"""Self-test of the ledger benchmark (not collected by tier-1).

    PYTHONPATH=src python -m pytest benchmarks/ledger -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import catalog  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _run(*args: str) -> tuple[int, dict]:
    finished = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args], capture_output=True, text=True, timeout=170
    )
    assert finished.stdout, finished.stderr
    return finished.returncode, json.loads(finished.stdout.splitlines()[-1])


def test_names_match_the_manifest():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m.name for m in catalog.END_TO_END + catalog.PER_LAYER] + list(catalog.WORKLOAD_NAMES)
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    expected = catalog.manifest(manifest["command"], manifest["paths"], manifest["run_seconds"])
    assert manifest == expected
    assert any(m.name == "setup_s" and m.better == "lower" for m in catalog.END_TO_END)
    assert all(0 < m.bound <= 0.25 for m in catalog.END_TO_END)


@pytest.mark.parametrize("workload", catalog.WORKLOAD_NAMES)
def test_one_second_smoke(workload):
    code, result = _run("--workload", workload, "--seconds", "1", "--seed", "7")
    assert code == 0
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m.name for m in catalog.END_TO_END]
    for metric in catalog.END_TO_END:
        assert result["metrics"][metric.name]["unit"] == metric.unit
        assert result["metrics"][metric.name]["value"] > 0


@pytest.mark.parametrize(
    ("workload", "counter"),
    [
        ("index_probe", "disk_accesses_per_op"),
        ("ingest_reload", "storage.wal_fsyncs_per_commit"),
        ("boxscan_1c", "constraints.sat_requests_per_op"),
    ],
)
def test_traced_counters_repeat_exactly(workload, counter):
    values = []
    for seconds in ("1", "2"):  # the count must not depend on the duration
        code, result = _run("--workload", workload, "--seconds", seconds, "--trace", "1")
        assert code == 0
        assert list(result["metrics"]) == [m.name for m in catalog.PER_LAYER]
        values.append(result["metrics"][counter]["value"])
    assert values[0] == values[1] > 0


def test_a_wrong_expected_row_count_fails_the_run(monkeypatch, capsys):
    run.import_program()
    import workloads

    honest = workloads.Point.make_database

    def planted(self):
        db = honest(self)
        self.ops[0].expect_rows += 1
        return db

    monkeypatch.setattr(workloads.Point, "make_database", planted)
    code = run.main(["--workload", "point_1c", "--seconds", "1", "--trace", "1"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code != 0
    assert result["correct"] is False and result["failed"] > 0
    assert result["metrics"]["failed_ratio"]["value"] > 0
