"""Execution-mode plumbing: the columnar/vectorized fast path.

Statements evaluate on one serial path; ``exec_mode="columnar"`` turns
on a vectorized interval pre-filter whose results are bit-identical to
the row loop (see :mod:`repro.exec.columnar` and ``docs/COLUMNAR.md``).
"""

from .columnar import (
    EXEC_MODE_ENV_VAR,
    EXEC_MODES,
    columnar_active,
    columnar_mode,
    default_exec_mode,
    uses_columnar,
)

__all__ = [
    "EXEC_MODES",
    "EXEC_MODE_ENV_VAR",
    "columnar_active",
    "columnar_mode",
    "default_exec_mode",
    "uses_columnar",
]
