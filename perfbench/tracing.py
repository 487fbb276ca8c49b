"""In-memory span tracing around calls into the program's public functions.

The benchmark never edits the program: a :class:`Tracer` replaces a function or
method attribute with a wrapper that records one span per call (id, parent,
name, start, end) and restores the original on :meth:`Tracer.uninstall`.  Spans
nest per thread, stay in memory while the run lasts and are written out once,
at the end, as JSON lines.  All stamps are ``time.monotonic()``
(``CLOCK_MONOTONIC`` on Linux), so spans from the load generator and the
system process share one clock.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    """Records spans for wrapped callables; one instance per process."""

    def __init__(self) -> None:
        # Each span: [id, parent_id, name, start, end, attrs-or-None].
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        # (owner, attribute, original, whether owner defined it itself)
        self._patches: list[tuple[object, str, object, bool]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list:
        stack = self._stack()
        span = [next(self._ids), stack[-1][0] if stack else 0, name, time.monotonic(), 0.0, None]
        stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[4] = time.monotonic()
        self._stack().pop()
        self.spans.append(span)

    def annotate(self, **attrs) -> None:
        """Add counters to the innermost open span of this thread."""
        stack = self._stack()
        if stack:
            span = stack[-1]
            span[5] = {**(span[5] or {}), **attrs}

    def traced(self, func, name, *, on_result=None):
        """``func`` wrapped to record one span per call.

        ``name`` is a span name or a function of the call's arguments returning
        one; ``on_result(result)`` returns counters stored on the span.
        """

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            record = self.open(name(*args, **kwargs) if callable(name) else name)
            try:
                result = func(*args, **kwargs)
            finally:
                self.close(record)
            if on_result is not None:
                record[5] = on_result(result)
            return result

        return wrapper

    def counted(self, func, on_result):
        """``func`` wrapped to add ``on_result(result)`` to the caller's open span."""

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            result = func(*args, **kwargs)
            self.annotate(**on_result(result))
            return result

        return wrapper

    def patch(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` by ``make(original function)`` until :meth:`uninstall`."""
        static = inspect.getattr_static(owner, attr)
        kind = type(static) if isinstance(static, (classmethod, staticmethod)) else None
        replacement = make(static.__func__ if kind is not None else static)
        self._patches.append((owner, attr, static, attr in vars(owner)))
        setattr(owner, attr, kind(replacement) if kind is not None else replacement)

    def wrap(self, owner, attr: str, name, *, on_result=None) -> None:
        """Record a span for every call of ``owner.attr``."""
        self.patch(owner, attr, lambda func: self.traced(func, name, on_result=on_result))

    def uninstall(self) -> None:
        for owner, attr, static, own in reversed(self._patches):
            if own:
                setattr(owner, attr, static)
            else:
                delattr(owner, attr)
        self._patches.clear()

    def dump(self, path: Path) -> None:
        with open(path, "w") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


def load_spans(path: Path) -> list[list]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def self_times(spans: list[list]) -> dict[str, dict]:
    """Per span name: call count, summed self time, per-call durations, counters.

    A span's self time is its duration minus the durations of its direct
    children, so the self times of a tree add up to its root's duration.
    """
    child_time: dict[int, float] = defaultdict(float)
    for span_id, parent, _, start, end, _ in spans:
        if parent:
            child_time[parent] += end - start
    layers: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "durations": [], "counters": defaultdict(float)}
    )
    for span_id, _, name, start, end, attrs in spans:
        layer = layers[name]
        layer["calls"] += 1
        layer["self_s"] += (end - start) - child_time[span_id]
        layer["durations"].append(end - start)
        for key, value in (attrs or {}).items():
            layer["counters"][key] += value
    return layers
