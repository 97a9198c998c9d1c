"""The query resource governor: budgets, cancellation, fault injection.

CQA/CDB's lesson (§4–5 of the paper) is that evaluation must stay *safe
and bounded*: unsafe operators are rejected because their output leaves
the linear class, but a safe query can still be explosive —
Fourier–Motzkin elimination and DNF complement are worst-case
exponential.  This package makes such queries fail *predictably*:

* :class:`Budget` — per-query limits (wall-clock deadline, solver steps,
  DNF clauses, output tuples, IO accesses) enforced cooperatively at
  engine loop boundaries; exhaustion raises the structured
  :class:`~repro.errors.ResourceExhausted` taxonomy with a resource
  snapshot, or degrades gracefully to partial results in
  ``on_exhausted="partial"`` mode.
* :mod:`~repro.governor.faultinject` — a seeded, deterministic
  :class:`FaultPlan` for the storage layer plus bounded
  retry-with-backoff, proving queries succeed, retry through transients,
  or fail structurally — never hang and never return silently-wrong
  results.

See "Resource limits & failure model" in docs/QUERY_LANGUAGE.md.
"""

from .budget import (
    Budget,
    ProducerGuard,
    charge,
    charge_io,
    checkpoint,
    current_budget,
)
from .faultinject import (
    CrashingFile,
    FaultPlan,
    FaultyBufferPool,
    FaultyWAL,
    RetryPolicy,
    SimulatedCrash,
    call_with_retries,
    corrupt_database_text,
)

__all__ = [
    "Budget",
    "CrashingFile",
    "FaultPlan",
    "FaultyBufferPool",
    "FaultyWAL",
    "ProducerGuard",
    "RetryPolicy",
    "SimulatedCrash",
    "call_with_retries",
    "charge",
    "charge_io",
    "checkpoint",
    "corrupt_database_text",
    "current_budget",
]
