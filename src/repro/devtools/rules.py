"""The RT1xx–RT4xx AST rules.

Each rule is a function from a :class:`ModuleContext` to an iterator of
:class:`RuntimeDiagnostic`, registered with the :func:`rt_rule`
decorator — the same registry shape as :mod:`repro.analysis.rules`, so
adding a rule is: write the checker, decorate it, document the code in
``docs/DEVTOOLS.md``.

Two rules are driven by in-source annotation registries that the linter
reads *as AST literals* (the modules never import devtools):

* ``__lock_registry__ = {"ClassName": {"field": "lock_attr"}}`` — RT103
  flags any mutation of ``self.<field>`` in a method of ``ClassName``
  that is not lexically inside ``with self.<lock_attr>:``.
* ``__cache_registry__ = {"field": "invalidation_name"}`` — RT201 flags
  any mutation of ``<base>.<field>`` in a function with no paired
  ``<base>.<invalidation_name>(...)`` call (or assignment) in the same
  function.  ``__init__`` is exempt: construction precedes any cache.

Both are deliberately lexical.  A mutation through an alias
(``pages = self._pages; pages.append(x)``) is invisible — the registry
contract is therefore also a style contract: guarded fields are touched
through ``self``, which is how the codebase is written.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from ._astutil import (
    ModuleContext,
    chain_matches,
    dotted_chain,
    functions,
    matches_any,
    module_literal,
    render_chain,
    walk_in_scope,
)
from .diagnostics import RuntimeDiagnostic, rt_diagnostic

CheckFn = Callable[[ModuleContext], Iterator[RuntimeDiagnostic]]


@dataclass(frozen=True)
class RTRule:
    code: str
    name: str
    check: CheckFn


_REGISTRY: list[RTRule] = []


def rt_rule(code: str, name: str) -> Callable[[CheckFn], CheckFn]:
    def register(fn: CheckFn) -> CheckFn:
        _REGISTRY.append(RTRule(code=code, name=name, check=fn))
        return fn

    return register


def all_rt_rules() -> tuple[RTRule, ...]:
    return tuple(_REGISTRY)


# --------------------------------------------------------------------------
# RT101: blocking calls on the event loop
# --------------------------------------------------------------------------

#: Call patterns that block the calling thread.  Inside an ``async def``
#: these stall every tenant sharing the loop; the fix is
#: ``loop.run_in_executor`` / ``asyncio.to_thread``.
BLOCKING_CALL_PATTERNS: tuple[str, ...] = (
    "time.sleep",
    "os.fsync",
    "os.replace",
    "open",
    "*.read_text",
    "*.write_text",
    "*.read_bytes",
    "*.write_bytes",
    "load_database",
    "*.load_database",
    "save_database",
    "*.save_database",
    "open_durable",
    "*.open_durable",
    "satisfiable",
    "full_solve",
    "*._executor.shutdown",
)


@rt_rule("RT101", "blocking call in async def")
def check_blocking_in_async(ctx: ModuleContext) -> Iterator[RuntimeDiagnostic]:
    for fn in functions(ctx.tree):
        if not isinstance(fn, ast.AsyncFunctionDef):
            continue
        for node in walk_in_scope(fn):
            if not isinstance(node, ast.Call):
                continue
            chain = dotted_chain(node.func)
            pattern = matches_any(chain, BLOCKING_CALL_PATTERNS)
            if pattern is None:
                continue
            yield rt_diagnostic(
                "RT101",
                f"blocking call '{render_chain(chain)}(...)' runs on the "
                f"event loop inside 'async def {fn.name}'",
                path=ctx.path,
                line=node.lineno,
                symbol=ctx.qualname(fn),
                hint="move it off-loop: await loop.run_in_executor(None, ...) "
                "or asyncio.to_thread(...)",
            )


# --------------------------------------------------------------------------
# RT102: thread-local stack push without try/finally pop
# --------------------------------------------------------------------------

_STACK_FACTORY_NAMES = ("ThreadLocalStack", "_ActiveStack")
_PUSH_METHODS = ("push", "append")


def _thread_local_stack_names(tree: ast.Module) -> frozenset[str]:
    """Module-level names bound to a thread-local stack: any call to a
    known factory class, or to a class defined here deriving from
    ``threading.local``."""
    local_classes = set(_STACK_FACTORY_NAMES)
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            for base in stmt.bases:
                if dotted_chain(base)[-1] == "local":
                    local_classes.add(stmt.name)
    names: set[str] = set()
    for stmt in tree.body:
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and isinstance(stmt.value, ast.Call)
            and dotted_chain(stmt.value.func)[-1] in local_classes
        ):
            names.add(stmt.targets[0].id)
    return frozenset(names)


def _stack_push_base(
    stmt: ast.stmt, stack_names: frozenset[str]
) -> tuple[str, ...] | None:
    """The stack chain (everything before ``.push``/``.append``) when
    ``stmt`` is a bare push onto a tracked thread-local stack."""
    if not (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)):
        return None
    chain = dotted_chain(stmt.value.func)
    if len(chain) >= 2 and chain[-1] in _PUSH_METHODS and chain[0] in stack_names:
        return chain[:-1]
    return None


def _finally_pops(try_stmt: ast.Try) -> frozenset[tuple[str, ...]]:
    """Stack chains popped anywhere in the ``finally`` suite."""
    popped: set[tuple[str, ...]] = set()
    for stmt in try_stmt.finalbody:
        for node in [stmt, *walk_in_scope(stmt)]:
            if isinstance(node, ast.Call):
                chain = dotted_chain(node.func)
                if chain[-1] == "pop":
                    popped.add(chain[:-1])
    return frozenset(popped)


def _child_suites(stmt: ast.stmt) -> Iterator[list[ast.stmt]]:
    """The statement suites nested directly in a compound statement."""
    for attr in ("body", "orelse", "finalbody"):
        suite = getattr(stmt, attr, None)
        if isinstance(suite, list) and suite and isinstance(suite[0], ast.stmt):
            yield suite
    for handler in getattr(stmt, "handlers", []):
        yield handler.body
    for case in getattr(stmt, "cases", []):
        yield case.body


@rt_rule("RT102", "stack push without try/finally pop")
def check_unbalanced_stack_push(ctx: ModuleContext) -> Iterator[RuntimeDiagnostic]:
    stack_names = _thread_local_stack_names(ctx.tree)
    if not stack_names:
        return

    findings: list[RuntimeDiagnostic] = []

    def scan(suite: Sequence[ast.stmt], protected: frozenset[tuple[str, ...]]) -> None:
        for i, stmt in enumerate(suite):
            base = _stack_push_base(stmt, stack_names)
            if base is not None and base not in protected:
                nxt = suite[i + 1] if i + 1 < len(suite) else None
                guarded = isinstance(nxt, ast.Try) and base in _finally_pops(nxt)
                if not guarded:
                    findings.append(
                        rt_diagnostic(
                            "RT102",
                            f"push onto thread-local stack "
                            f"'{render_chain(base)}' with no matching pop in "
                            "a finally block",
                            path=ctx.path,
                            line=stmt.lineno,
                            symbol=ctx.qualname(stmt),
                            hint="follow the push with try/finally pop, or use "
                            "the .pushed(...) context manager",
                        )
                    )
            if isinstance(stmt, ast.Try):
                inner = protected | _finally_pops(stmt)
                scan(stmt.body, inner)
                for handler in stmt.handlers:
                    scan(handler.body, protected)
                scan(stmt.orelse, inner)
                scan(stmt.finalbody, protected)
            elif isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                scan(stmt.body, frozenset())
            else:
                for child in _child_suites(stmt):
                    scan(child, protected)

    scan(ctx.tree.body, frozenset())
    yield from findings


# --------------------------------------------------------------------------
# RT103: guarded field mutated outside its declared lock
# --------------------------------------------------------------------------

#: Method names that mutate their receiver in place.
_MUTATOR_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "remove",
        "pop",
        "popitem",
        "clear",
        "add",
        "discard",
        "update",
        "setdefault",
        "sort",
        "reverse",
        "appendleft",
        "popleft",
    }
)

_SIMPLE_STMTS = (ast.Assign, ast.AnnAssign, ast.AugAssign, ast.Expr, ast.Delete)


def _assign_targets(stmt: ast.stmt) -> Iterator[ast.expr]:
    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            if isinstance(target, (ast.Tuple, ast.List)):
                yield from target.elts
            else:
                yield target
    elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        yield stmt.target
    elif isinstance(stmt, ast.AugAssign):
        yield stmt.target
    elif isinstance(stmt, ast.Delete):
        yield from stmt.targets


def _field_mutations(stmt: ast.stmt) -> Iterator[tuple[tuple[str, ...], int]]:
    """``(access chain, line)`` for each attribute-rooted mutation
    performed by a *simple* statement: assignments/deletions targeting an
    attribute or subscript, and in-place mutator calls."""
    if not isinstance(stmt, _SIMPLE_STMTS):
        return
    for target in _assign_targets(stmt):
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            yield dotted_chain(target), stmt.lineno
    if (
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Call)
        and isinstance(stmt.value.func, ast.Attribute)
        and stmt.value.func.attr in _MUTATOR_METHODS
    ):
        yield dotted_chain(stmt.value.func), stmt.lineno


def _lock_registry(ctx: ModuleContext) -> Mapping[str, Mapping[str, str]]:
    raw = module_literal(ctx.tree, "__lock_registry__")
    if isinstance(raw, dict):
        return {
            str(cls): {str(f): str(lk) for f, lk in spec.items()}
            for cls, spec in raw.items()
            if isinstance(spec, dict)
        }
    return {}


@rt_rule("RT103", "mutation outside declared lock")
def check_lock_discipline(ctx: ModuleContext) -> Iterator[RuntimeDiagnostic]:
    registry = _lock_registry(ctx)
    if not registry:
        return

    findings: list[RuntimeDiagnostic] = []

    def scan(
        suite: Sequence[ast.stmt],
        held: frozenset[str],
        fields: Mapping[str, str],
        cls_name: str,
    ) -> None:
        for stmt in suite:
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                acquired = set()
                for item in stmt.items:
                    chain = dotted_chain(item.context_expr)
                    if len(chain) == 2 and chain[0] == "self":
                        acquired.add(chain[1])
                scan(stmt.body, held | frozenset(acquired), fields, cls_name)
                continue
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            for chain, line in _field_mutations(stmt):
                if len(chain) >= 2 and chain[0] == "self" and chain[1] in fields:
                    lock = fields[chain[1]]
                    if lock not in held:
                        findings.append(
                            rt_diagnostic(
                                "RT103",
                                f"'{render_chain(chain)}' mutates "
                                f"{cls_name}.{chain[1]}, declared guarded by "
                                f"'self.{lock}', outside 'with self.{lock}:'",
                                path=ctx.path,
                                line=line,
                                symbol=ctx.qualname(stmt),
                                hint="wrap the mutation in the declared lock "
                                "(see __lock_registry__)",
                            )
                        )
            for child in _child_suites(stmt):
                scan(child, held, fields, cls_name)

    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        fields = registry.get(node.name)
        if not fields:
            continue
        for member in node.body:
            if (
                isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                and member.name != "__init__"
            ):
                scan(member.body, frozenset(), fields, node.name)

    yield from findings


# --------------------------------------------------------------------------
# RT201: cache-backed field mutated without invalidation
# --------------------------------------------------------------------------


def _cache_registry(ctx: ModuleContext) -> Mapping[str, str]:
    raw = module_literal(ctx.tree, "__cache_registry__")
    if isinstance(raw, dict):
        return {str(field): str(inval) for field, inval in raw.items()}
    return {}


@rt_rule("RT201", "cache mutation without invalidation")
def check_cache_invalidation(ctx: ModuleContext) -> Iterator[RuntimeDiagnostic]:
    registry = _cache_registry(ctx)
    if not registry:
        return

    for fn in functions(ctx.tree):
        if fn.name == "__init__":
            continue
        mutations: list[tuple[tuple[str, ...], str, int]] = []
        call_chains: set[tuple[str, ...]] = set()
        assign_chains: set[tuple[str, ...]] = set()
        for node in walk_in_scope(fn):
            if isinstance(node, ast.Call):
                call_chains.add(dotted_chain(node.func))
            if isinstance(node, ast.stmt):
                for target in _assign_targets(node):
                    assign_chains.add(dotted_chain(target))
                for chain, line in _field_mutations(node):
                    for idx in range(1, len(chain)):
                        if chain[idx] in registry:
                            mutations.append((chain[:idx], chain[idx], line))
                            break
        for base, field, line in mutations:
            inval = registry[field]
            paired = base + (inval,)
            if paired in call_chains or paired in assign_chains:
                continue
            yield rt_diagnostic(
                "RT201",
                f"'{render_chain(base)}.{field}' is cache-backed but this "
                f"mutation has no paired '{render_chain(base)}.{inval}(...)' "
                "in the same function",
                path=ctx.path,
                line=line,
                symbol=ctx.qualname(fn),
                hint=f"invalidate via {inval} after mutating, or waive a "
                "provably-fresh object with '# devtools: allow[RT201]'",
            )


# --------------------------------------------------------------------------
# RT301: governed loop without a budget checkpoint
# --------------------------------------------------------------------------

#: Calls that do real IO/solver work; a loop that performs them should
#: give the governor a chance to cancel or charge per iteration.
WORK_CALL_PATTERNS: tuple[str, ...] = (
    "*.read_page",
    "*.write_page",
    "os.fsync",
    "*.fsync",
    "satisfiable",
    "*.satisfiable",
    "full_solve",
    "*.full_solve",
)

#: Cooperation markers: budget charge/checkpoint entry points and the
#: ProducerGuard wrapper.  A ``yield`` also counts — a generator loop
#: hands control back to a consumer that charges.
HOOK_CALL_PATTERNS: tuple[str, ...] = (
    "checkpoint",
    "*.checkpoint",
    "charge",
    "*.charge",
    "charge_io",
    "*.charge_io",
    "charge_rows",
    "*.charge_rows",
    "start_row",
    "*.start_row",
    "produced",
    "*.produced",
    "ProducerGuard",
    "*.ProducerGuard",
)


@rt_rule("RT301", "governed loop without checkpoint")
def check_governed_loops(ctx: ModuleContext) -> Iterator[RuntimeDiagnostic]:
    for fn in functions(ctx.tree):
        for node in walk_in_scope(fn):
            if not isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
                continue
            work: ast.Call | None = None
            has_hook = False
            has_yield = False
            for sub in walk_in_scope(node):
                if isinstance(sub, (ast.Yield, ast.YieldFrom, ast.Await)):
                    has_yield = True
                elif isinstance(sub, ast.Call):
                    chain = dotted_chain(sub.func)
                    if matches_any(chain, HOOK_CALL_PATTERNS):
                        has_hook = True
                    elif work is None and matches_any(chain, WORK_CALL_PATTERNS):
                        work = sub
            if work is not None and not has_hook and not has_yield:
                chain = dotted_chain(work.func)
                yield rt_diagnostic(
                    "RT301",
                    f"loop performs '{render_chain(chain)}(...)' with no "
                    "governor checkpoint/charge on the path — cancellation "
                    "and budgets cannot interrupt it",
                    path=ctx.path,
                    line=node.lineno,
                    symbol=ctx.qualname(fn),
                    hint="call checkpoint()/charge_io() per iteration or wrap "
                    "the producer in ProducerGuard",
                )


# --------------------------------------------------------------------------
# RT401 / RT402: exception hygiene
# --------------------------------------------------------------------------

#: Modules where *any* broad handler is suspect: silent absorption here
#: turns torn writes into quiet corruption.
_CRITICAL_MODULES = frozenset({"repro.storage.wal", "repro.storage.snapshot"})

#: Qualname fragments marking recovery/redo paths in any module.
_CRITICAL_MARKERS = ("recover", "reload", "replay", "redo", "crash")


def _handler_type_chains(handler: ast.ExceptHandler) -> list[tuple[str, ...]]:
    if handler.type is None:
        return []
    if isinstance(handler.type, ast.Tuple):
        return [dotted_chain(elt) for elt in handler.type.elts]
    return [dotted_chain(handler.type)]


def _reraises(handler: ast.ExceptHandler) -> bool:
    return any(
        isinstance(node, ast.Raise)
        for node in walk_in_scope(handler)
    )


@rt_rule("RT401", "broad except on durability path")
def check_broad_except(ctx: ModuleContext) -> Iterator[RuntimeDiagnostic]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        chains = _handler_type_chains(node)
        if node.type is not None and not any(
            chain[-1] == "Exception" for chain in chains
        ):
            continue
        if node.type is None:
            # Bare except is RT402's (stricter) business.
            continue
        qual = ctx.qualname(node).lower()
        critical = ctx.module_name in _CRITICAL_MODULES or any(
            marker in qual for marker in _CRITICAL_MARKERS
        )
        if not critical or _reraises(node):
            continue
        yield rt_diagnostic(
            "RT401",
            "broad 'except Exception' on a durability/recovery path "
            "swallows failures that should abort the operation",
            path=ctx.path,
            line=node.lineno,
            symbol=ctx.qualname(node),
            hint="catch the specific ReproError/OSError subset, or re-raise "
            "after logging",
        )


@rt_rule("RT402", "handler swallows BaseException")
def check_swallowed_base_exception(ctx: ModuleContext) -> Iterator[RuntimeDiagnostic]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        chains = _handler_type_chains(node)
        broad = node.type is None or any(
            chain[-1] == "BaseException" for chain in chains
        )
        if not broad or _reraises(node):
            continue
        yield rt_diagnostic(
            "RT402",
            "handler catches BaseException (or everything) without "
            "re-raising — it would absorb SimulatedCrash and "
            "KeyboardInterrupt",
            path=ctx.path,
            line=node.lineno,
            symbol=ctx.qualname(node),
            hint="re-raise in the handler, or narrow the caught type to "
            "Exception subclasses",
        )


__all__ = [
    "RTRule",
    "rt_rule",
    "all_rt_rules",
    "BLOCKING_CALL_PATTERNS",
    "WORK_CALL_PATTERNS",
    "HOOK_CALL_PATTERNS",
    "chain_matches",
]
