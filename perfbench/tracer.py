"""Outside-in host-time tracer for the serving stack.

Nothing under ``src/`` is instrumented.  The tracer wraps the public calls
each layer exposes — bound methods of the backend and plan-cache instances
the benchmark hands to ``serve_continuous``, and module or class attributes
the engine resolves at call time — and restores every attribute afterwards.

Spans nest on one stack (the benchmark is single-threaded).  A span's
*inclusive* time is its wall duration; its *self* time is that minus the
time its child spans cover, so the self times of every span under one root
sum to the root's wall time exactly.
"""

from __future__ import annotations

import time

__all__ = ["Span", "Tracer"]


class Span:
    """Accumulated calls, inclusive and self nanoseconds, and work items."""

    __slots__ = ("calls", "total_ns", "self_ns", "items")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.items = 0

    @property
    def total_s(self) -> float:
        return self.total_ns * 1e-9

    @property
    def self_s(self) -> float:
        return self.self_ns * 1e-9


class Tracer:
    """Named spans over wrapped callables, with attribute patching and restore."""

    def __init__(self) -> None:
        self.spans: "dict[str, Span]" = {}
        self._stack: "list[list[int]]" = []
        self._patches: "list[tuple[object, str, bool, object]]" = []

    def take(self) -> "dict[str, Span]":
        """Copies of every span recorded so far; the live spans restart at zero."""
        taken = {}
        for name, span in self.spans.items():
            taken[name] = copy = Span()
            copy.calls, copy.total_ns, copy.self_ns, copy.items = (
                span.calls, span.total_ns, span.self_ns, span.items
            )
            span.calls = span.total_ns = span.self_ns = span.items = 0
        return taken

    def wrap(self, name: str, fn, items=None):
        """``fn`` timed as span ``name``; ``items(args)`` counts work per call."""
        span = self.spans.setdefault(name, Span())
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            frame = [0]  # nanoseconds covered by child spans
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                span.calls += 1
                span.total_ns += elapsed
                span.self_ns += elapsed - frame[0]
                if items is not None:
                    span.items += items(args)
                if stack:
                    stack[-1][0] += elapsed

        return traced

    def run(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` as span ``name`` (a root span when nothing is open)."""
        return self.wrap(name, fn)(*args, **kwargs)

    def patch(self, owner, attribute: str, name: str, items=None) -> None:
        """Replace ``owner.attribute`` by its traced wrapper until :meth:`restore`."""
        self.replace(owner, attribute, self.wrap(name, getattr(owner, attribute), items))

    def replace(self, owner, attribute: str, value) -> None:
        """Set ``owner.attribute`` to ``value`` until :meth:`restore`."""
        own = attribute in vars(owner)
        self._patches.append((owner, attribute, own, vars(owner).get(attribute)))
        setattr(owner, attribute, value)

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patches:
            owner, attribute, own, original = self._patches.pop()
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
