"""Timers wrapped around the program's functions from outside.

A Tracer replaces a function, as the module that calls it sees it, by a
wrapper that records one span per call: its duration and the time its
direct child spans covered, so that self time is duration minus children.
Spans are aggregated per name in memory (there are millions of them in a
table run) and every patch is undone by ``restore``.  The wrappers keep one
shared span stack, so a traced run must be single-threaded.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable


@dataclasses.dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    units: int = 0  # work items, where the span counts them (values, rows)


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, SpanStats] = {}
        self.counters: dict[str, int] = {}
        self.root_s = 0.0  # time covered by spans with no parent span
        self._stack: list[list[float]] = []
        self._undo: list[Callable[[], None]] = []

    def wrap(self, name: str, fn: Callable, units: Callable | None = None,
             after: Callable | None = None) -> Callable:
        """``units(args)`` counts the work items of a call; ``after(result)``
        sees each result (used to read counters the result carries)."""
        stats = self.stats.setdefault(name, SpanStats())
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                else:
                    tracer.root_s += duration
                stats.calls += 1
                stats.total_s += duration
                stats.self_s += duration - children[0]
            if units is not None:
                stats.units += units(args)
            if after is not None:
                after(result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, units: Callable | None = None,
              after: Callable | None = None) -> None:
        """Replace ``owner.attr`` (a module function, a class's function or
        classmethod) by its traced wrapper."""
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrap(name, original.__func__, units, after))
        else:
            replacement = self.wrap(name, original, units, after)
        setattr(owner, attr, replacement)
        self._undo.append(lambda: setattr(owner, attr, original))

    def patch_item(self, mapping: dict, key, value) -> None:
        original = mapping[key]
        mapping[key] = value
        self._undo.append(lambda: mapping.__setitem__(key, original))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    def summary(self) -> dict:
        return {"spans": {name: dataclasses.asdict(s) for name, s in sorted(self.stats.items())},
                "counters": dict(sorted(self.counters.items())), "root_s": self.root_s}


def per_call_us(stats: SpanStats) -> float:
    return 1e6 * stats.total_s / stats.calls if stats.calls else 0.0
