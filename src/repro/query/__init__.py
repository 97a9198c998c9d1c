"""The ASCII multi-step query language front end (section 3.3).

Public surface:

* :class:`QuerySession` — execute scripts/statements against a database.
* :class:`ExplainAnalyzeReport` — ``explain_analyze``'s per-operator tree.
* :func:`parse_statement` / :func:`parse_script` — parsing only.
* :func:`compile_statement`, :func:`compile_conditions` — AST → plan.
"""

from .compiler import compile_conditions, compile_statement
from .parser import parse_script, parse_statement
from .session import ExplainAnalyzeReport, QuerySession

__all__ = [
    "ExplainAnalyzeReport",
    "QuerySession",
    "compile_conditions",
    "compile_statement",
    "parse_script",
    "parse_statement",
]
