"""Shared thread-local stacks and sanitizer-aware lock factories.

Three subsystems activate per-thread state the same way — a thread-local
stack whose top governs the current evaluation: the obs registry stack
(:mod:`repro.obs.registry`), the governor budget stack
(:mod:`repro.governor.budget`), and the columnar-mode stack
(:mod:`repro.exec.columnar`).  :class:`ThreadLocalStack` is their one
shared implementation, and the ``repro devtools lint`` rule RT102
enforces the discipline every user of it must follow: a push is only
correct when the matching pop sits in a ``finally`` block (or the
:meth:`ThreadLocalStack.pushed` context manager is used, which brackets
for you).

The module also owns the lock factories :func:`new_lock` and
:func:`new_async_lock`.  In normal operation they return plain
``threading.Lock`` / ``asyncio.Lock`` objects; when the RT5xx runtime
sanitizer is installed (``REPRO_SANITIZE=1`` — see
:mod:`repro.devtools.sanitize`) they return *tracked* locks that feed the
lock-order deadlock detector.  Repro-owned locks should be created
through these factories so test runs under the sanitizer observe every
acquisition.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Iterator


class ThreadLocalStack(threading.local):
    """A per-thread activation stack (one independent stack per thread).

    The canonical usage is a guarded push::

        _STACK.push(value)
        try:
            ...
        finally:
            _STACK.pop()

    or equivalently ``with _STACK.pushed(value): ...``.  An unguarded
    push leaks the activation into unrelated work on the same thread —
    exactly the bug class rule RT102 of ``repro devtools lint`` exists
    to catch statically.
    """

    def __init__(self) -> None:
        self.items: list[Any] = []

    def push(self, item: Any) -> None:
        self.items.append(item)

    def pop(self) -> Any:
        return self.items.pop()

    def top(self) -> Any | None:
        """The active item for this thread, or ``None`` when empty."""
        items = self.items
        return items[-1] if items else None

    def __bool__(self) -> bool:
        return bool(self.items)

    def __len__(self) -> int:
        return len(self.items)

    @contextmanager
    def pushed(self, item: Any) -> Iterator[Any]:
        """Push ``item`` for the dynamic extent of the block."""
        self.items.append(item)
        try:
            yield item
        finally:
            self.items.pop()


def new_lock(name: str) -> Any:
    """A ``threading.Lock`` for repro-owned shared state.

    ``name`` labels the lock's role (e.g. ``"storage.snapshot"``) — it is
    the node identity the sanitizer's lock-order graph uses, so every
    lock created for the same role shares one ordering constraint.
    Returns a plain lock unless the RT5xx sanitizer is installed.
    """
    from .devtools.sanitize import active_sanitizer

    sanitizer = active_sanitizer()
    if sanitizer is not None:
        return sanitizer.tracked_lock(name)
    return threading.Lock()


def new_async_lock(name: str) -> Any:
    """An ``asyncio.Lock`` for repro-owned shared state (see
    :func:`new_lock` for the naming contract)."""
    import asyncio

    from .devtools.sanitize import active_sanitizer

    sanitizer = active_sanitizer()
    if sanitizer is not None:
        return sanitizer.tracked_async_lock(name)
    return asyncio.Lock()


__all__ = ["ThreadLocalStack", "new_lock", "new_async_lock"]
