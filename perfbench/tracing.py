"""In-memory span recorder that wraps functions by name, and self-time arithmetic.

A span is the list ``[name, start, end, parent, run]``: ``parent`` is the index
of the enclosing span in ``Tracer.spans`` (-1 at top level) and ``run`` the id
of the runner call the span belongs to. Calls are assumed serial, so one stack
serves the whole process.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

NAME, START, END, PARENT, RUN = range(5)


class Tracer:
    """Wraps functions so each call records a span, and holds named counters."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self.run_id = 0
        self._stack = []

    def wrap(self, name, fn, before=None, after=None):
        """Traced stand-in for fn.

        ``before(tracer, fn, args, kwargs)`` may return replacement
        ``(args, kwargs)``; ``after(tracer, fn, args, kwargs, result)`` reads
        the result. Hooks run outside the span, so they add no self time.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(self, fn, args, kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if after is not None:
                after(self, fn, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, targets, namespaces):
        """Patch each target and every namespace entry bound to the same object.

        ``targets`` holds ``(owner, attr, span_name, before, after)``; owner is a
        module or a class. A module that did ``from x import f`` holds its own
        reference to f, so every namespace is searched for that object, not
        just the owner; a namespace that is itself the owner of a target for
        the same attr keeps that target's span name. Everything is restored
        on exit.
        """
        explicit = {(id(owner), attr) for owner, attr, *_ in targets}
        patches = []
        try:
            for owner, attr, name, before, after in targets:
                orig = vars(owner)[attr]
                traced = self.wrap(name, orig, before, after)
                for ns in [owner, *namespaces]:
                    if ns is not owner and (id(ns), attr) in explicit:
                        continue
                    for key, value in list(vars(ns).items()):
                        if value is orig:
                            patches.append((ns, key, orig))
                            setattr(ns, key, traced)
            yield self
        finally:
            for ns, key, orig in reversed(patches):
                setattr(ns, key, orig)


def self_times(spans) -> list:
    """Duration of each span minus the part of it that its children cover."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(i)
    out = []
    for i, span in enumerate(spans):
        start, end = span[START], span[END]
        covered, reach = 0.0, start
        for c_start, c_end in sorted((spans[c][START], spans[c][END]) for c in children[i]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def totals_by_name(spans) -> dict:
    """name -> (self seconds, inclusive seconds, call count), summed over spans."""
    out = defaultdict(lambda: [0.0, 0.0, 0])
    for span, own in zip(spans, self_times(spans)):
        acc = out[span[NAME]]
        acc[0] += own
        acc[1] += span[END] - span[START]
        acc[2] += 1
    return {name: tuple(v) for name, v in out.items()}
