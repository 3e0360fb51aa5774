"""Core tuple-at-a-time operators: select, project, compute, sort, union."""

from __future__ import annotations

from typing import Any, Callable, Iterator, Sequence

from repro.algebra.tuples import BindingTuple
from repro.algebra.vector import (
    DEFAULT_BATCH_ROWS,
    MISSING,
    BatchCursor,
    RecordBatch,
    batches_from_rows,
    gather,
)
from repro.xmldm.values import _comparison_key, values_equal

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

    **Batch protocol.**  :meth:`bind_vectorized` arms the tree for
    columnar execution; :meth:`batches` then yields
    :class:`~repro.algebra.vector.RecordBatch` chunks.  Operators that
    implement ``_produce_batches`` run natively on columns; everything
    else falls back to its row ``_produce`` bridged through
    ``batches_from_rows``, so vectorized and row operators compose
    freely in one tree.  Iterating a vectorized operator drains its
    batches and materializes tuples, which keeps row-only consumers
    (and parents without a native batch path) working unchanged.
    EXPLAIN ANALYZE always uses the row path — per-row timing is the
    point there.
    """

    def __init__(self, *children: "Operator"):
        self.children: tuple[Operator, ...] = children
        self.rows_out = 0
        self.virtual_ms = 0.0
        self._analyze_clock = None
        self._batch_rows = 0

    @property
    def rows_in(self) -> int:
        """Tuples pulled from the children so far."""
        return sum(child.rows_out for child in self.children)

    def bind_vectorized(self, batch_rows: int = DEFAULT_BATCH_ROWS) -> None:
        """Arm the whole tree for columnar execution (recursive)."""
        if batch_rows < 1:
            raise ValueError("batch_rows must be >= 1")
        self._batch_rows = batch_rows
        for child in self.children:
            child.bind_vectorized(batch_rows)

    @property
    def vectorized(self) -> bool:
        return self._batch_rows > 0

    def _batch_active(self) -> bool:
        return (
            self._batch_rows > 0
            and self._analyze_clock is None
            and type(self)._produce_batches is not Operator._produce_batches
        )

    def batches(self) -> Iterator[RecordBatch]:
        """Produce the operator's output as column batches.

        Native implementations count ``rows_out`` per batch; the
        fallback wraps row iteration (which counts per row) so the
        counters stay consistent either way.
        """
        if self._batch_active():
            for batch in self._produce_batches():
                produced = batch.live_count
                if produced:
                    self.rows_out += produced
                    yield batch
            return
        yield from batches_from_rows(
            iter(self), self._batch_rows or DEFAULT_BATCH_ROWS
        )

    def __iter__(self) -> Iterator[BindingTuple]:
        if self._batch_active():
            for batch in self.batches():
                yield from batch.to_tuples()
            return
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

    def _produce_batches(self) -> Iterator[RecordBatch]:
        """Native columnar production; overridden by vectorized operators."""
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

    def _produce_batches(self) -> Iterator[RecordBatch]:
        predicate = self.predicate
        batch_eval = getattr(predicate, "batch_eval", None)
        cursor = BatchCursor()
        for batch in self.children[0].batches():
            if batch_eval is not None:
                live = batch_eval(batch)
            else:
                cursor.batch = batch
                live = []
                for index in batch.live_indices():
                    cursor.index = index
                    if predicate(cursor):
                        live.append(index)
            yield batch.with_live(live)

    def describe(self) -> str:
        return f"Select({self.label})" if self.label else "Select"


class Project(Operator):
    """Keep only the named variables."""

    def __init__(self, child: Operator, variables: Sequence[str]):
        super().__init__(child)
        self.variables = tuple(variables)

    def _produce(self) -> Iterator[BindingTuple]:
        for row in self.children[0]:
            yield row.project(self.variables)

    def _produce_batches(self) -> Iterator[RecordBatch]:
        # O(columns) per batch: the projection just drops column refs
        for batch in self.children[0].batches():
            yield batch.project(self.variables)

    def describe(self) -> str:
        return f"Project({', '.join('$' + v for v in self.variables)})"


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

    def _produce_batches(self) -> Iterator[RecordBatch]:
        fn = self.fn
        var = self.var
        cursor = BatchCursor()
        for batch in self.children[0].batches():
            cursor.batch = batch
            live = batch.live_indices()
            existing = batch.columns.get(var)
            if existing is None:
                # fresh binding: compute into a new column, keep the mask
                column = [MISSING] * batch.length
                for index in live:
                    cursor.index = index
                    column[index] = fn(cursor)
                columns = dict(batch.columns)
                columns[var] = column
                yield RecordBatch(
                    columns,
                    None if batch.live is None else list(batch.live),
                    batch.length,
                )
                continue
            # unification semantics of BindingTuple.extend: an already
            # bound equal value is kept, a conflicting one drops the row
            column = list(existing)
            keep: list[int] = []
            for index in live:
                cursor.index = index
                value = fn(cursor)
                current = existing[index]
                if current is MISSING:
                    column[index] = value
                    keep.append(index)
                elif values_equal(current, value):
                    keep.append(index)
            columns = dict(batch.columns)
            columns[var] = column
            yield RecordBatch(columns, keep, batch.length)

    def describe(self) -> str:
        suffix = f" = {self.label}" if self.label else ""
        return f"Compute(${self.var}{suffix})"


class Distinct(Operator):
    """Remove duplicate tuples over the named variables (default: all)."""

    def __init__(self, child: Operator, variables: Sequence[str] | None = None):
        super().__init__(child)
        self.variables = tuple(variables) if variables is not None else None

    def _produce(self) -> Iterator[BindingTuple]:
        seen_keys: set[str] = set()
        for row in self.children[0]:
            view = row if self.variables is None else row.project(self.variables)
            key = repr(sorted(view.as_dict().items()))
            if key in seen_keys:
                continue
            seen_keys.add(key)
            yield row

    def _produce_batches(self) -> Iterator[RecordBatch]:
        seen_keys: set[str] = set()
        for batch in self.children[0].batches():
            keep: list[int] = []
            columns = batch.columns
            if self.variables is None:
                view_columns = list(columns.items())
            else:
                view_columns = [
                    (var, columns[var]) for var in self.variables if var in columns
                ]
            for index in batch.live_indices():
                items = [
                    (var, values[index])
                    for var, values in view_columns
                    if values[index] is not MISSING
                ]
                key = repr(sorted(items))
                if key in seen_keys:
                    continue
                seen_keys.add(key)
                keep.append(index)
            yield batch.with_live(keep)

    def describe(self) -> str:
        if self.variables is None:
            return "Distinct"
        return f"Distinct({', '.join('$' + v for v in self.variables)})"


class Union(Operator):
    """Concatenate the outputs of several children (bag union)."""

    def __init__(self, *children: Operator):
        super().__init__(*children)

    def _produce(self) -> Iterator[BindingTuple]:
        for child in self.children:
            yield from child

    def describe(self) -> str:
        return f"Union({len(self.children)})"


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

    def _produce_batches(self) -> Iterator[RecordBatch]:
        # materialize all live (batch, row) pairs, evaluate every key
        # column once, order a global permutation, then gather
        sources: list[tuple[RecordBatch, int]] = []
        for batch in self.children[0].batches():
            for index in batch.live_indices():
                sources.append((batch, index))
        cursor = BatchCursor()
        key_columns: list[list[Any]] = []
        for fn, _descending in self.keys:
            values = []
            for batch, index in sources:
                cursor.batch = batch
                cursor.index = index
                values.append(fn(cursor))
            key_columns.append(values)
        order = stable_order(
            len(sources), key_columns,
            [descending for _, descending in self.keys],
        )
        yield from gather(sources, order, self._batch_rows or DEFAULT_BATCH_ROWS)

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

    def _produce_batches(self) -> Iterator[RecordBatch]:
        remaining = self.count
        if remaining <= 0:
            return
        for batch in self.children[0].batches():
            count = batch.live_count
            if count <= remaining:
                remaining -= count
                yield batch
                if remaining == 0:
                    return
            else:
                yield batch.with_live(list(batch.live_indices())[:remaining])
                return

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

    Analyze/vectorized bindings happen after plan building, so the
    rewrite only needs to preserve tree shape invariants: the fused
    operator inherits the sort's keys and the limit's count.
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
