"""The closed loop and the end-to-end metrics.

Each client sends its next statement only after the previous reply (a
closed loop: a slower system receives less load).  The statement list is
cycled in fixed order; a reply that is non-ok, shed, timed out or fails
its oracle check is a *failed* operation and is excluded from latency and
throughput.
"""

from __future__ import annotations

import math
import resource
import statistics
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from workloads import Op, Workload


@dataclass
class Sample:
    seconds: float  # client-visible: call -> reply
    ok: bool
    #: The server's own ``elapsed_ms`` for the statement (``None`` for
    #: ping and for in-process sessions).
    server_ms: float | None
    started: float
    pass_no: int  # which pass over the client's list this belongs to
    client: int = 0
    #: Whether that pass ran to its end.
    whole_pass: bool = False


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def _client_loop(
    target: Any,
    ops: Sequence[Op],
    out: list[Sample],
    seconds: float | None,
    passes: int | None,
    on_request: Callable[[int, float, float], None] | None,
) -> None:
    deadline = None if seconds is None else time.perf_counter() + seconds
    limit = None if passes is None else passes * len(ops)
    i = 0
    while (limit is None or i < limit) and (
        deadline is None or time.perf_counter() < deadline
    ):
        op = ops[i % len(ops)]
        token = op.before()
        started = time.perf_counter()
        try:
            reply = target.call(op)
        except Exception:  # a timeout or a dropped connection is a failed op
            reply = {"ok": False}
        ended = time.perf_counter()
        out.append(
            Sample(
                ended - started, op.check(reply, token), reply.get("elapsed_ms"),
                started, i // len(ops),
            )
        )
        if on_request is not None:
            on_request(i, started, ended)
        i += 1
    for sample in out:
        sample.whole_pass = sample.pass_no < i // len(ops)


def run_clients(
    workload: Workload,
    targets: Sequence[Any],
    *,
    seconds: float | None = None,
    passes: int | None = None,
    on_request: Callable[[int, float, float], None] | None = None,
) -> list[Sample]:
    """Drive every target through the statement list, for ``seconds`` or
    for exactly ``passes`` whole passes.  Returns the pooled samples."""
    per_client: list[list[Sample]] = [[] for _ in targets]
    if len(targets) == 1:
        _client_loop(targets[0], workload.client_ops(0), per_client[0], seconds, passes, on_request)
    else:
        errors: list[BaseException] = []

        def body(client: int, target: Any, out: list[Sample]) -> None:
            try:
                _client_loop(target, workload.client_ops(client), out, seconds, passes, on_request)
            except BaseException as exc:  # re-raised below
                errors.append(exc)

        threads = [
            threading.Thread(target=body, args=(i, target, out), name=f"ledger-client-{i}")
            for i, (target, out) in enumerate(zip(targets, per_client))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
    for client, out in enumerate(per_client):
        for sample in out:
            sample.client = client
    return [sample for out in per_client for sample in out]


def whole_passes(samples: Sequence[Sample]) -> Sequence[Sample]:
    """The samples of completed whole passes: statements differ in cost, so
    a trailing partial pass would tilt pooled figures by wherever the clock
    happened to stop.  (All samples, if no pass completed.)"""
    kept = [s for s in samples if s.whole_pass]
    return kept or samples


#: The timed phase is cut into this many windows of whole passes, and each
#: timing metric is the median of its per-window values: on this VM other
#: work steals the CPU in bursts of a few seconds (point_1c drops from
#: 3100 to 1900 ops/s for ~4 s now and then), and a run that catches one
#: would otherwise read 25 % slow with a p95 almost twice the usual.
WINDOWS = 5


def _windows(samples: Sequence[Sample]) -> list[list[Sample]]:
    """Consecutive groups of whole passes, pooled over the clients."""
    passes = {c: 1 + max(s.pass_no for s in samples if s.client == c)
              for c in {s.client for s in samples}}
    count = min(WINDOWS, *passes.values())
    windows: list[list[Sample]] = [[] for _ in range(count)]
    for sample in samples:
        windows[sample.pass_no * count // passes[sample.client]].append(sample)
    return windows


def _window_metrics(window: Sequence[Sample]) -> tuple[float, float, float]:
    """(ops per second, p50 seconds, p95 seconds) of one window; failed
    operations are excluded from latency and throughput."""
    good = sorted(s.seconds for s in window if s.ok)
    throughput = 0.0
    for client in {s.client for s in window}:
        own = [s for s in window if s.client == client]
        busy = own[-1].started + own[-1].seconds - own[0].started
        throughput += sum(1 for s in own if s.ok) / busy
    return throughput, percentile(good, 0.50), percentile(good, 0.95)


def end_to_end(samples: Sequence[Sample], setup_seconds: Sequence[float]) -> dict:
    """The client-visible metrics of one timed phase, with sample counts."""
    counted = whole_passes(samples)
    good = sum(1 for s in counted if s.ok)
    windows = [w for w in _windows(counted) if any(s.ok for s in w)]
    if not windows:
        raise RuntimeError("no operation succeeded in the timed phase")
    throughput, p50, p95 = (
        statistics.median(values) for values in zip(*map(_window_metrics, windows))
    )
    return {
        "ops_per_s": (throughput, good),
        "op_p50_ms": (p50 * 1000.0, good),
        "op_p95_ms": (p95 * 1000.0, good),
        # ru_maxrss is KiB on Linux.
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "setup_s": (statistics.median(setup_seconds), len(setup_seconds)),
    }
