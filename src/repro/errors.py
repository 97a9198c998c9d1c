"""Exception hierarchy for the CQA/CDB reproduction.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch a single base class.  Subclasses mirror the layers of
the system (constraints, schema/model, algebra, query language, spatial,
storage) described in DESIGN.md.

Two structured sub-taxonomies matter for robustness:

* :class:`ResourceExhausted` — a query ran into a limit of its
  :class:`~repro.governor.Budget` (deadline, solver steps, DNF clauses,
  output tuples, IO accesses).  Each instance carries the consumed-resource
  snapshot taken when the limit fired, so callers get diagnostics instead
  of a hung or OOM-killed process.
* :class:`StorageError` and its :class:`TransientStorageError` /
  :class:`CorruptPageError` children — the storage failure model.
  Transient errors are retryable (see
  :mod:`repro.governor.faultinject`); corruption is permanent and is
  detected by the serialization checksum layer.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:
    from .analysis.diagnostics import Diagnostics


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConstraintError(ReproError):
    """Invalid constraint construction or manipulation."""


class NonLinearError(ConstraintError):
    """An operation would leave the linear constraint class."""


class SchemaError(ReproError):
    """Schema violations: unknown attributes, arity/type mismatches."""


class AlgebraError(ReproError):
    """Invalid algebraic operation over constraint relations."""


class SafetyError(AlgebraError):
    """A query is unsafe: its output is not representable in closed form
    within the system's constraint class (section 2.4 of the paper)."""


class QueryError(ReproError):
    """Errors in the CQA query language front end."""


class ParseError(QueryError):
    """Syntax errors in the ASCII query language.

    Carries the bare ``message`` plus the 1-based ``line``/``column`` it
    points at, so diagnostic renderers can place their own caret instead
    of re-parsing the formatted string."""

    def __init__(
        self, message: str, line: int | None = None, column: int | None = None
    ) -> None:
        location = ""
        if line is not None:
            location = f" at line {line}"
            if column is not None:
                location += f", column {column}"
        elif column is not None:
            location = f" at column {column}"
        super().__init__(f"{message}{location}")
        self.message = message
        self.line = line
        self.column = column


class StaticAnalysisError(QueryError):
    """Strict-mode static analysis rejected a statement before execution.

    ``diagnostics`` holds the full :class:`~repro.analysis.Diagnostics`
    report (errors and any accompanying warnings) that caused the
    rejection."""

    def __init__(self, message: str, diagnostics: Diagnostics | None = None) -> None:
        super().__init__(message)
        self.diagnostics = diagnostics


class GeometryError(ReproError):
    """Invalid geometric input (unbounded regions, degenerate polygons)."""


class ProtocolError(ReproError):
    """A malformed wire frame or request reached the query server
    (:mod:`repro.server`): oversized frame, invalid JSON, non-object
    payload, or an unknown operation.  Maps to a 400-style reply."""


class StorageError(ReproError):
    """Errors in the simulated storage layer or serialization format."""


class TransientStorageError(StorageError):
    """A storage operation failed in a way that may succeed on retry
    (simulated flaky read).  The retry helpers in
    :mod:`repro.governor.faultinject` retry exactly this class; every
    other :class:`StorageError` is permanent."""


class CorruptPageError(StorageError):
    """Stored data failed an integrity check (checksum/length mismatch).
    Permanent: retrying reads the same corrupt bytes."""


class IndexStructureError(ReproError):
    """Errors in index construction or search (named to avoid shadowing
    the builtin :class:`IndexError`)."""


class ResourceExhausted(ReproError):
    """A query exceeded one of its :class:`~repro.governor.Budget` limits.

    ``resource`` names the exhausted budget knob, ``consumed``/``limit``
    quantify it, and ``snapshot`` is the governor's consumed-resources
    snapshot (including obs-registry counters) at the moment the limit
    fired — the partial diagnostics a bounded failure should carry.
    """

    def __init__(
        self,
        message: str,
        *,
        resource: str = "",
        consumed: float | int | None = None,
        limit: float | int | None = None,
        snapshot: Mapping[str, float] | None = None,
    ):
        super().__init__(message)
        self.resource = resource
        self.consumed = consumed
        self.limit = limit
        self.snapshot = dict(snapshot) if snapshot is not None else {}


class DeadlineExceeded(ResourceExhausted):
    """The query's wall-clock deadline passed."""


class SolverBudgetExceeded(ResourceExhausted):
    """The solver-step / elimination-atom budget ran out (typically a
    Fourier–Motzkin blow-up)."""


class DNFBudgetExceeded(ResourceExhausted):
    """The DNF clause cap was hit while distributing or complementing a
    formula (difference/complement blow-up)."""


class OutputLimitExceeded(ResourceExhausted):
    """The query materialized more tuples than its output cap allows."""


class IOBudgetExceeded(ResourceExhausted):
    """The query performed more simulated IO (R*-tree node visits) than
    its budget allows."""
