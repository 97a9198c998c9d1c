"""The repository's benchmark: one ledger, seven workloads.

    python benchmarks/ledger/run.py                      # every workload, untraced + traced
    python benchmarks/ledger/run.py --workload point_1c  # one untraced run, in this process
    python benchmarks/ledger/run.py --workload point_1c --trace 1
    python benchmarks/ledger/run.py --aa 10              # run-to-run spread against the bounds

One run = one workload in one fresh interpreter: set-up (repeated, median
reported) → oracle → one untimed warm-up pass → a timed closed loop of
``--seconds``.  ``--trace 1`` appends the traced phase (``layers.py``) and
reports the per-layer metrics instead of the end-to-end ones.  The last
line of a run's standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the exit code is
non-zero when any reply failed its check.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SOURCE = ROOT / "src"

#: Knobs a caller's shell may carry; a run always measures the defaults.
_STRIPPED = ("REPRO_WORKERS", "REPRO_EXEC_MODE", "REPRO_SANITIZE")
_STRIPPED_PREFIX = "REPRO_BENCH_"

SETUP_REPEATS = 3
DEFAULT_SEED = 11
DEFAULT_SECONDS = 10.0


def _hermetic_environment() -> None:
    for name in list(os.environ):
        if name in _STRIPPED or name.startswith(_STRIPPED_PREFIX):
            del os.environ[name]


def import_program() -> None:
    """Put the checkout's own ``src`` first on the path: the benchmark
    measures this tree, never an installed copy."""
    if not (SOURCE / "repro" / "__init__.py").is_file():
        raise SystemExit(f"ledger: no program to measure: {SOURCE / 'repro'} is missing")
    sys.path.insert(0, str(SOURCE))
    sys.path.insert(0, str(HERE))


def _exit_on_sigterm() -> None:
    """Turn SIGTERM into ``SystemExit`` so every ``finally`` runs: servers
    stop, the writer child is waited for, work files are removed."""

    def handler(signum: int, frame: object) -> None:
        del frame
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, handler)


def _commit() -> str:
    try:
        found = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return found.stdout.strip() if found.returncode == 0 and found.stdout.strip() else "unknown"


# -- one workload, in this process ----------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, out: Path | None) -> dict:
    """Run one workload here and return its ledger record."""
    import catalog
    import layers
    import measure
    import workloads

    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work_root))
    workload = workloads.BY_NAME[name](seed, workdir)
    allowed_cpus = workload.confine()
    try:
        setup_seconds = []
        for repeat in range(SETUP_REPEATS):
            if repeat:
                workload.teardown()
            started = time.perf_counter()
            workload.build()
            setup_seconds.append(time.perf_counter() - started)
        targets = []
        try:
            workload.fill_oracle()
            targets = workload.targets()
            measure.run_clients(workload, targets, passes=1)  # warm-up, untimed
            with workload.background():
                samples = measure.run_clients(workload, targets, seconds=seconds)
            end_to_end = measure.end_to_end(samples, setup_seconds)
            checked = list(samples)
            per_layer: dict[str, float | None] = {}
            spans: list[dict] = []
            if trace:
                per_layer, traced, tracer = layers.traced_phase(workload, targets, samples)
                checked += traced
                spans = tracer.spans
        finally:
            for target in targets:
                target.close()
            workload.teardown()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run is still using it
        if allowed_cpus:
            os.sched_setaffinity(0, allowed_cpus)

    side_attempted, side_failed = workload.side_ops()
    attempted = len(checked) + side_attempted
    failed = sum(1 for s in checked if not s.ok) + side_failed
    if trace:
        per_layer["failed_ratio"] = failed / attempted
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "commit": _commit(),
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "attempted": attempted,
        "failed": failed,
        "end_to_end": {k: v for k, (v, _) in end_to_end.items()},
        "samples": {k: n for k, (_, n) in end_to_end.items()},
        "per_layer": per_layer,
        "units": {m.name: m.unit for m in catalog.END_TO_END + catalog.PER_LAYER},
    }
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "ledger.jsonl", "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
        if trace:
            with open(out / f"trace-{name}.jsonl", "w", encoding="utf-8") as handle:
                for span in spans:
                    handle.write(json.dumps(span) + "\n")
    return record


def _print_record(record: dict) -> None:
    import catalog

    traced = bool(record["trace"])
    print(
        f"== {record['workload']}  seed={record['seed']} seconds={record['seconds']:g} "
        f"trace={record['trace']} commit={record['commit']} python={record['python']} "
        f"cores={record['cores']}"
    )
    if traced:
        for metric in catalog.PER_LAYER:
            value = record["per_layer"].get(metric.name)
            shown = "n/a (operation does not occur on this workload)" if value is None else f"{value:.6g} {metric.unit}"
            print(f"  {metric.name:<40} {shown}")
    else:
        for metric in catalog.END_TO_END:
            print(
                f"  {metric.name:<40} {record['end_to_end'][metric.name]:.6g} {metric.unit}"
                f"  (n={record['samples'][metric.name]}, bound {metric.bound:g})"
            )
    print(f"  attempted={record['attempted']} failed={record['failed']}")
    # The driver's contract: every metric a number.  A per-layer metric
    # that does not apply to the workload reads 0 on this line only.
    if traced:
        values = {m.name: (record["per_layer"].get(m.name) or 0.0, m.unit) for m in catalog.PER_LAYER}
    else:
        values = {m.name: (record["end_to_end"][m.name], m.unit) for m in catalog.END_TO_END}
    print(
        json.dumps(
            {
                "correct": record["failed"] == 0,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
            }
        )
    )


# -- every workload, each in a fresh interpreter ---------------------------------


def _spawn(name: str, seed: int, seconds: float, trace: int, out: Path | None) -> dict | None:
    """Run one workload in a fresh interpreter (clean solver caches, clean
    RSS), echo its report, and return its last-line JSON (``None`` if it
    printed none)."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if out is not None:
        command += ["--out", str(out)]
    finished = subprocess.run(command, capture_output=True, text=True)
    lines = finished.stdout.splitlines()
    sys.stdout.write("\n".join(lines[:-1]) + "\n" if len(lines) > 1 else "")
    sys.stderr.write(finished.stderr)
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"ledger: {name} (trace={trace}) exited {finished.returncode} without a result")
        return None


def run_all(names: list[str], seed: int, seconds: float, out: Path | None) -> int:
    failures = 0
    for name in names:
        for trace in (0, 1):
            result = _spawn(name, seed, seconds, trace, out)
            if result is None or not result["correct"]:
                failures += 1
    print(f"ledger: {len(names)} workloads, {failures} failed runs")
    return 1 if failures else 0


def run_aa(names: list[str], seed: int, seconds: float, runs: int) -> int:
    """The driver's acceptance rule, run locally: ``runs`` untraced runs
    per workload, each with another seed; per end-to-end metric, the
    distance between the first and third quartile as a share of the
    median must stay within the metric's bound."""
    import catalog

    misfits = 0
    rows = []
    for name in names:
        values: dict[str, list[float]] = {m.name: [] for m in catalog.END_TO_END}
        for i in range(runs):
            result = _spawn(name, seed + i, seconds, 0, None)
            if result is None or not result["correct"]:
                misfits += 1
                continue
            for metric in catalog.END_TO_END:
                values[metric.name].append(result["metrics"][metric.name]["value"])
        for metric in catalog.END_TO_END:
            series = values[metric.name]
            if len(series) < 2:
                continue
            q1, _, q3 = statistics.quantiles(series, n=4)
            median = statistics.median(series)
            spread = (q3 - q1) / median
            fits = spread <= metric.bound or metric.name == "setup_s"
            misfits += 0 if fits else 1
            rows.append((name, metric.name, median, metric.unit, spread, metric.bound, fits))
    print(f"== A/A: {runs} runs per workload, seeds {seed}..{seed + runs - 1}")
    for name, metric, median, unit, spread, bound, fits in rows:
        print(
            f"  {name:<14} {metric:<12} median {median:>10.4g} {unit:<4} "
            f"spread {spread:6.3f}  bound {bound:4.2f}  {'fits' if fits else 'DOES NOT FIT'}"
        )
    return 1 if misfits else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", help="run this one workload in this process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", "--duration", type=float, default=DEFAULT_SECONDS,
                        help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--aa", type=int, metavar="N", help="N untraced runs per workload, spread vs bound")
    parser.add_argument("--out", type=Path, help="append ledger.jsonl records and write trace-*.jsonl here")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _exit_on_sigterm()
    _hermetic_environment()
    import_program()
    import catalog

    if args.workload is not None and args.workload not in catalog.WORKLOAD_NAMES:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(catalog.WORKLOAD_NAMES)}")
    names = [args.workload] if args.workload is not None else list(catalog.WORKLOAD_NAMES)
    if args.aa is not None:
        return run_aa(names, args.seed, args.seconds, args.aa)
    if args.workload is not None:
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.out)
        _print_record(record)
        return 1 if record["failed"] else 0
    return run_all(names, args.seed, args.seconds, args.out)


if __name__ == "__main__":
    sys.exit(main())
