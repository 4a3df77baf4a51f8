"""In-memory span tracer that wraps library functions from outside.

A :class:`Tracer` replaces module or class attributes with thin wrappers
that open a span on entry and close it on exit.  Spans nest through a
stack, so each records its parent; all spans of one benchmark op share the
op id set by :meth:`Tracer.op`.  Counters ride alongside for quantities
that are not times (traversals checked, connections that succeeded, ...).
Every patched attribute is put back by :meth:`Tracer.restore`.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter, defaultdict
from typing import Callable

# Span record layout: [name, start, end, parent index or -1, op id].
NAME, START, END, PARENT, OP = range(5)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._op = -1

    # -- spans ------------------------------------------------------------

    def current(self) -> str | None:
        """Name of the innermost open span, if any."""
        return self.spans[self._stack[-1]][NAME] if self._stack else None

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        rec = [name, 0.0, 0.0, parent, self._op]
        self.spans.append(rec)
        self._stack.append(idx)
        rec[START] = time.perf_counter()
        try:
            yield rec
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def op(self, op_id: int, name: str = "op"):
        """Root span of one benchmark op; nested spans inherit its id."""
        prev = self._op
        self._op = op_id
        try:
            with self.span(name):
                yield
        finally:
            self._op = prev

    # -- patching ---------------------------------------------------------

    def wrap(
        self, fn: Callable, name: str, after: Callable | None = None
    ) -> Callable:
        """A wrapper that runs ``fn`` inside a span named ``name``.

        ``after(result, *args, **kwargs)`` runs once the span has closed, so
        its bookkeeping does not count as the wrapped function's time.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper

    def patch(self, owner: object, attr: str, replacement: object) -> None:
        """Set ``owner.attr`` to ``replacement``, remembering the original.

        Class attributes are read from the class ``__dict__`` so that
        restoring does not turn an inherited or descriptor attribute into a
        plain one.
        """
        if isinstance(owner, type):
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- derived numbers --------------------------------------------------

    def self_times(self) -> dict[str, tuple[float, int]]:
        """``name -> (self seconds, calls)``.

        A span's self time is its duration minus the durations of its
        direct children.
        """
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        out: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for i, rec in enumerate(self.spans):
            acc = out[rec[NAME]]
            acc[0] += rec[END] - rec[START] - child[i]
            acc[1] += 1
        return {k: (v[0], v[1]) for k, v in out.items()}
