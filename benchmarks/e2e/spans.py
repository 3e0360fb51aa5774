"""Outside-in span recorder: rebind entry points, record, fold to self time.

The recorder lives entirely in the benchmark.  :meth:`Recorder.install`
replaces each listed attribute (a module function or a class method)
with a wrapper, and rebinds every module-level name anywhere in
``sys.modules`` that still points at the original function, so callers
that did ``from x import f`` are traced too.  :meth:`Recorder.uninstall`
puts every original object back.

A span is ``[name, start_s, end_s, parent index, kind]`` kept in one
in-memory list.  The process is single-threaded, so the open spans form
a stack and the parent of a new span is the top of it.
"""

from __future__ import annotations

import json
import sys
import types
from collections import defaultdict
from time import perf_counter

NAME, START, END, PARENT, KIND = range(5)
CALL, RESUME = 0, 1


class Recorder:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        #: (namespace, attribute, original object) for every rebinding
        self._rebound: list[tuple] = []

    # -- recording --------------------------------------------------------

    def open(self, name: str, kind: int = CALL) -> int:
        stack = self._stack
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, kind])
        stack.append(index)
        self.spans[index][START] = perf_counter()
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = perf_counter()
        self._stack.pop()

    def drain(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("drain() while a span is open")
        spans, self.spans = self.spans, []
        return spans

    def wrap(self, name: str, function):
        """A traced stand-in for ``function``.

        A call made while a span of the same name is innermost is
        re-entrant (``build_elements`` recursing into itself): it runs
        inside the outer span and opens none of its own.  A call that
        returns a generator does its work when the generator is
        resumed, so every resume is recorded as a span of its own.
        """
        recorder, stack = self, self._stack

        def traced(*args, **kwargs):
            if stack and recorder.spans[stack[-1]][NAME] == name:
                return function(*args, **kwargs)
            index = recorder.open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                recorder.close(index)
            if isinstance(result, types.GeneratorType):
                return recorder._resumes(name, result)
            return result

        traced.__wrapped__ = function
        return traced

    def _resumes(self, name: str, generator):
        while True:
            index = self.open(name, RESUME)
            try:
                item = next(generator)
            except StopIteration:
                return
            finally:
                self.close(index)
            yield item

    # -- rebinding --------------------------------------------------------

    def install(self, wraps) -> None:
        """Rebind every ``(span name, owner, attribute)`` in ``wraps``."""
        if self._rebound:
            raise RuntimeError("recorder already installed")
        names = {}
        for name, owner, attribute in wraps:
            original = vars(owner)[attribute]
            if not isinstance(original, types.FunctionType):
                raise TypeError(f"{owner.__name__}.{attribute} is not a "
                                "plain function or method")
            names[original] = name
            self._rebind(name, owner, attribute, original)
        for module in list(sys.modules.values()):
            for attribute, value in list(getattr(module, "__dict__", {}).items()):
                if isinstance(value, types.FunctionType) and value in names:
                    self._rebind(names[value], module, attribute, value)

    def _rebind(self, name, owner, attribute, original) -> None:
        self._rebound.append((owner, attribute, original))
        setattr(owner, attribute, self.wrap(name, original))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._rebound):
            setattr(owner, attribute, original)
        self._rebound.clear()


# -- folding ------------------------------------------------------------------


def under(spans: list[list], root_name: str) -> list[bool]:
    """Per span: is it a top-level span called ``root_name`` or below one?"""
    inside = []
    for span in spans:  # a parent always precedes its children
        parent = span[PARENT]
        inside.append(inside[parent] if parent >= 0
                      else span[NAME] == root_name)
    return inside


def fold(spans: list[list], keep: list[bool] | None = None
         ) -> dict[str, dict[str, float]]:
    """Per span name: self seconds, inclusive seconds and calls (a name
    that recorded nothing reads as zeros).

    Self time is a span's duration minus the part its child spans cover.
    Inclusive time counts a span only when no ancestor has its name, so
    a view sub-query nested in an outer query is not counted twice.
    ``keep`` restricts the totals to the spans it marks.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"self_s": 0.0, "incl_s": 0.0, "calls": 0}
    )
    for index, span in enumerate(spans):
        if keep is not None and not keep[index]:
            continue
        entry = totals[span[NAME]]
        duration = span[END] - span[START]
        entry["self_s"] += duration - child_time[index]
        if span[KIND] == CALL:
            entry["calls"] += 1
        ancestor = span[PARENT]
        while ancestor >= 0 and spans[ancestor][NAME] != span[NAME]:
            ancestor = spans[ancestor][PARENT]
        if ancestor < 0:
            entry["incl_s"] += duration
    return totals


def subtree(spans: list[list], root: int) -> list[list]:
    """The spans under (and including) ``spans[root]``, in start order."""
    keep = {root}
    picked = []
    for index, span in enumerate(spans):
        if index == root or span[PARENT] in keep:
            keep.add(index)
            picked.append(span)
    return picked


def write_chrome_trace(path, spans: list[list]) -> None:
    """Spans as a Chrome ``trace_event`` file (open in about://tracing)."""
    origin = min((span[START] for span in spans), default=0.0)
    events = [
        {"name": span[NAME], "ph": "X", "pid": 1, "tid": 1,
         "ts": (span[START] - origin) * 1e6,
         "dur": (span[END] - span[START]) * 1e6}
        for span in spans
    ]
    path.write_text(json.dumps({"traceEvents": events}))
