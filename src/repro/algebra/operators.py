"""Core tuple-at-a-time operators: select, compute, sort, limit, top-k."""

from __future__ import annotations

from typing import Any, Callable, Iterator, Sequence

from repro.algebra.tuples import BindingTuple
from repro.xmldm.values import _comparison_key

Predicate = Callable[[BindingTuple], bool]
ValueFn = Callable[[BindingTuple], Any]
SortKeys = Sequence[tuple[ValueFn, bool]]  # (value function, descending?)


class Operator:
    """Base class: an iterable of binding tuples with explain support.

    ``rows_out`` counts tuples produced across all iterations; the
    engine resets counters per query to report per-operator cardinality.
    ``rows_in`` derives consumption from the children: pull-based
    iteration means a child's ``rows_out`` is exactly what this
    operator pulled, so the two never disagree.

    For EXPLAIN ANALYZE, :meth:`bind_analyze` attaches a virtual clock;
    iteration then charges the virtual time spent producing each row to
    ``virtual_ms``.  The measure is *inclusive* (a parent's time
    contains its children's — they produce inside the parent's pull);
    the renderer reports it as such.
    """

    def __init__(self, *children: "Operator"):
        self.children: tuple[Operator, ...] = children
        self.rows_out = 0
        self.virtual_ms = 0.0
        self._analyze_clock = None

    @property
    def rows_in(self) -> int:
        """Tuples pulled from the children so far."""
        return sum(child.rows_out for child in self.children)

    def __iter__(self) -> Iterator[BindingTuple]:
        clock = self._analyze_clock
        if clock is None:
            for row in self._produce():
                self.rows_out += 1
                yield row
            return
        produce = self._produce()
        while True:
            started = clock.now
            try:
                row = next(produce)
            except StopIteration:
                self.virtual_ms += clock.now - started
                return
            self.virtual_ms += clock.now - started
            self.rows_out += 1
            yield row

    def _produce(self) -> Iterator[BindingTuple]:
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__

    def analyze_stats(self) -> dict[str, Any]:
        """Per-operator annotations for ``explain(analyze=True)``."""
        return {
            "rows_out": self.rows_out,
            "rows_in": self.rows_in,
            "virtual_ms": round(self.virtual_ms, 3),
        }

    def explain(self, depth: int = 0, analyze: bool = False) -> str:
        line = "  " * depth + self.describe()
        if analyze:
            annotations = ", ".join(
                f"{key}={value}" for key, value in self.analyze_stats().items()
            )
            line += f"  ({annotations})"
        lines = [line]
        for child in self.children:
            lines.append(child.explain(depth + 1, analyze))
        return "\n".join(lines)

    def bind_analyze(self, clock) -> None:
        """Attach a virtual clock for per-operator timing (recursive)."""
        self._analyze_clock = clock
        for child in self.children:
            child.bind_analyze(clock)

    def reset_counters(self) -> None:
        self.rows_out = 0
        self.virtual_ms = 0.0
        for child in self.children:
            child.reset_counters()

    def walk(self) -> Iterator["Operator"]:
        yield self
        for child in self.children:
            yield from child.walk()


class Select(Operator):
    """Keep tuples satisfying a predicate."""

    def __init__(self, child: Operator, predicate: Predicate, label: str = ""):
        super().__init__(child)
        self.predicate = predicate
        self.label = label

    def _produce(self) -> Iterator[BindingTuple]:
        for row in self.children[0]:
            if self.predicate(row):
                yield row

    def describe(self) -> str:
        return f"Select({self.label})" if self.label else "Select"


class Compute(Operator):
    """Bind a new variable to a computed value."""

    def __init__(self, child: Operator, var: str, fn: ValueFn, label: str = ""):
        super().__init__(child)
        self.var = var
        self.fn = fn
        self.label = label

    def _produce(self) -> Iterator[BindingTuple]:
        for row in self.children[0]:
            extended = row.extend(self.var, self.fn(row))
            if extended is not None:
                yield extended

    def describe(self) -> str:
        suffix = f" = {self.label}" if self.label else ""
        return f"Compute(${self.var}{suffix})"


def stable_order(
    count: int, key_columns: Sequence[Sequence[Any]], descending: Sequence[bool]
) -> list[int]:
    """Positions ``0..count-1`` in ORDER BY order.

    Every key value is reduced to its place in the model's total order
    once, not once per comparison; then one stable native sort per key,
    last key first, ``reverse`` for DESC.  A stable sort keeps ties in
    arrival order in either direction, so the passes compose to the
    lexicographic order over (key 1, key 2, ...) with arrival order last.
    """
    order = list(range(count))
    for values, reverse in zip(reversed(key_columns), reversed(descending)):
        decorated = [_comparison_key(value) for value in values]
        order.sort(key=decorated.__getitem__, reverse=reverse)
    return order


def sort_rows(rows: list[BindingTuple], keys: SortKeys) -> list[BindingTuple]:
    """Stable sort of materialized rows by ``keys``."""
    order = stable_order(
        len(rows),
        [[fn(row) for row in rows] for fn, _ in keys],
        [descending for _, descending in keys],
    )
    return [rows[position] for position in order]


class Sort(Operator):
    """Sort by key expressions using the model's total value order."""

    def __init__(self, child: Operator, keys: SortKeys, label: str = ""):
        super().__init__(child)
        self.keys = list(keys)
        self.label = label

    def _produce(self) -> Iterator[BindingTuple]:
        yield from sort_rows(list(self.children[0]), self.keys)

    def describe(self) -> str:
        return f"Sort({self.label or len(self.keys)})"


class Limit(Operator):
    """Pass through at most ``count`` tuples (after any ordering)."""

    def __init__(self, child: Operator, count: int):
        super().__init__(child)
        if count < 0:
            raise ValueError("limit must be non-negative")
        self.count = count

    def _produce(self) -> Iterator[BindingTuple]:
        produced = 0
        for row in self.children[0]:
            if produced >= self.count:
                return
            produced += 1
            yield row

    def describe(self) -> str:
        return f"Limit({self.count})"


class TopK(Operator):
    """Fused Sort + Limit: the first ``count`` rows in sort order.

    Output is bit-identical to ``Limit(Sort(child, keys), count)``,
    ties included; the input is sorted on its decorated keys and cut.
    """

    def __init__(self, child: Operator, keys: SortKeys, count: int,
                 label: str = ""):
        super().__init__(child)
        if count < 0:
            raise ValueError("limit must be non-negative")
        self.keys = list(keys)
        self.count = count
        self.label = label

    def _produce(self) -> Iterator[BindingTuple]:
        if self.count == 0:
            return
        yield from sort_rows(list(self.children[0]), self.keys)[:self.count]

    def describe(self) -> str:
        return f"TopK({self.count}, {self.label or len(self.keys)})"


def fuse_sort_limit(root: Operator) -> Operator:
    """Rewrite every directly adjacent ``Limit(Sort(x))`` into a TopK.

    Analyze bindings happen after plan building, so the rewrite only
    needs to preserve tree shape invariants: the fused operator inherits
    the sort's keys and the limit's count.
    """
    new_children = tuple(fuse_sort_limit(child) for child in root.children)
    if new_children != root.children:
        root.children = new_children
    if (
        isinstance(root, Limit)
        and len(root.children) == 1
        and isinstance(root.children[0], Sort)
    ):
        sort = root.children[0]
        return TopK(sort.children[0], sort.keys, root.count, label=sort.label)
    return root
