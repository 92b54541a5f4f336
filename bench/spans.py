"""In-memory spans recorded around calls into the program, and self times.

A span is ``[name, start, end, parent]``: wall-clock seconds from
``time.perf_counter`` and the index of the enclosing span (-1 at a root).
:class:`Tracer` records spans by replacing module attributes with timing
wrappers for the duration of a ``with tracer.installed(targets):`` block;
the program itself is not modified.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time


class Tracer:
    """Records nested spans for one single-threaded process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self, targets):
        """Wrap ``module.attr`` for every ``(module, attr, span_name)`` target.

        A target whose attribute does not exist is skipped with a note on
        stderr, so a program that stops calling a function through that
        attribute still runs; its metrics then read 0.
        """
        saved = []
        try:
            for module, attr, name in targets:
                original = getattr(module, attr, None)
                if original is None:
                    print(f"trace: {getattr(module, '__name__', module)}.{attr} not found; not traced", file=sys.stderr)
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def span_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Median extra seconds one traced call costs over an untraced one."""

    def noop():
        return None

    traced = Tracer().wrap("noop", noop)
    costs = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        mid = time.perf_counter()
        for _ in range(calls):
            traced()
        costs.append(((time.perf_counter() - mid) - (mid - start)) / calls)
    return sorted(costs)[repeats // 2]


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for index, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(index)
    result = []
    for index, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[index]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append((end - start) - covered)
    return result


def layer_of(name: str) -> str:
    """Span names are ``<module>.<function>``; the module is the layer."""
    return name.split(".", 1)[0]


def write_csv(path, spans) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,name,start,end,parent\n")
        for index, (name, start, end, parent) in enumerate(spans):
            fh.write(f"{index},{name},{start!r},{end!r},{parent}\n")
