"""Expression evaluation and physical plan nodes for the SQL engine.

Rows flow between nodes as *environments*: a mapping from table binding
(alias) to a column->value dict, optionally paired with a map of computed
aggregate values.  The final Project node turns environments into output
tuples.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Iterator

from repro.errors import ExecutionError, SQLError
from repro.sql import ast
from repro.sql.functions import (
    AGGREGATE_NAMES,
    SCALAR_FUNCTIONS,
    Aggregator,
    make_aggregator,
)
from repro.sql.index import SortedIndex
from repro.sql.storage import Table
from repro.sql.types import sort_key, sql_compare

Env = dict[str, dict[str, Any]]
#: one compiled expression: built once per statement per plan node,
#: called once per row
Compiled = Callable[["Row"], Any]


@dataclass
class Row:
    """One row in flight: bindings plus (for grouped queries) the
    group's aggregate results, in the statement's aggregate-call order."""

    env: Env
    aggregates: list[Any] | None = None


_NUMBERS = frozenset({int, float})

_COMPARISONS = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _divide(left: Any, right: Any) -> Any:
    if right == 0:
        return None  # SQL-style: division by zero yields NULL
    result = left / right
    if isinstance(left, int) and isinstance(right, int) and left % right == 0:
        return left // right
    return result


def _modulo(left: Any, right: Any) -> Any:
    return None if right == 0 else left % right


_ARITHMETIC = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _divide,
    "%": _modulo,
}


class Evaluator:
    """Turns SQL expressions into closures over a row environment.

    ``aggregate_calls`` are the statement's aggregate calls in the order
    :class:`AggregateNode` computes them: an aggregate call compiles to
    a read of that position of ``Row.aggregates``.
    """

    def __init__(self, params: tuple[Any, ...] = (),
                 aggregate_calls: tuple[ast.FuncCall, ...] = ()):
        self.params = params
        self._aggregate_slots = {
            call: slot for slot, call in enumerate(aggregate_calls)
        }

    def compile(self, expr: ast.Expr) -> Compiled:
        """The closure evaluating ``expr`` against a :class:`Row`.

        Everything that does not depend on the row is decided here:
        which operator, which function, which aggregate slot.  Errors
        that depend on the rows seen (an unknown column, bad operands,
        a missing parameter) are raised by the closure, so a statement
        over no rows fails exactly when its interpretation would have.
        """
        build = _COMPILERS.get(type(expr))
        if build is None:
            raise ExecutionError(f"cannot evaluate {expr!r}")
        return build(self, expr)

    def evaluate(self, expr: ast.Expr, row: Row) -> Any:
        return self.compile(expr)(row)

    # -- expression cases ----------------------------------------------------

    def _literal(self, expr: ast.Literal) -> Compiled:
        value = expr.value
        return lambda row: value

    def _param(self, expr: ast.Param) -> Compiled:
        if expr.index < len(self.params):
            value = self.params[expr.index]
            return lambda row: value

        def missing(row: Row) -> Any:
            raise ExecutionError(
                f"statement uses parameter {expr.index + 1} but only "
                f"{len(self.params)} supplied"
            )

        return missing

    def _columnref(self, expr: ast.ColumnRef) -> Compiled:
        column = expr.column
        table = expr.table
        if table is not None:

            def read(row: Row) -> Any:
                try:
                    return row.env[table][column]
                except KeyError:
                    if table not in row.env:
                        raise ExecutionError(
                            f"unknown table binding {table!r}"
                        ) from None
                    raise ExecutionError(
                        f"no column {column!r} in {table!r}"
                    ) from None

            return read

        # unqualified: every row a plan node sees has the same bindings
        # and columns, so the owner is resolved on the first row
        owner: list[str] = []

        def read_unqualified(row: Row) -> Any:
            if not owner:
                hits = [b for b, columns in row.env.items() if column in columns]
                if not hits:
                    raise ExecutionError(f"unknown column {column!r}")
                if len(hits) > 1:
                    raise ExecutionError(f"ambiguous column {column!r}")
                owner.append(hits[0])
            return row.env[owner[0]][column]

        return read_unqualified

    def _binaryop(self, expr: ast.BinaryOp) -> Compiled:
        op = expr.op
        left = self.compile(expr.left)
        right = self.compile(expr.right)
        if op == "AND":

            def conjunction(row: Row) -> Any:
                a = left(row)
                if a is False:
                    return False
                b = right(row)
                if b is False:
                    return False
                if a is None or b is None:
                    return None
                return True

            return conjunction
        if op == "OR":

            def disjunction(row: Row) -> Any:
                a = left(row)
                if a is True:
                    return True
                b = right(row)
                if b is True:
                    return True
                if a is None or b is None:
                    return None
                return False

            return disjunction
        if op in _COMPARISONS:
            test = _COMPARISONS[op]

            def comparison(row: Row) -> Any:
                a = left(row)
                b = right(row)
                if a is None or b is None:
                    return None
                kind = type(a)
                if (kind in _NUMBERS and type(b) in _NUMBERS) or (
                    kind is str and type(b) is str
                ):
                    # sql_compare's answer for the two common families
                    return test((a > b) - (a < b), 0)
                return test(sql_compare(a, b), 0)

            return comparison
        if op == "||":

            def concat(row: Row) -> Any:
                a = left(row)
                b = right(row)
                if a is None or b is None:
                    return None
                return str(a) + str(b)

            return concat
        apply = _ARITHMETIC.get(op)

        def arithmetic(row: Row) -> Any:
            a = left(row)
            b = right(row)
            if a is None or b is None:
                return None
            if apply is None:
                raise ExecutionError(f"unknown operator {op!r}")
            try:
                return apply(a, b)
            except TypeError as exc:
                raise ExecutionError(
                    f"bad operands for {op!r}: {a!r}, {b!r}"
                ) from exc

        return arithmetic

    def _unaryop(self, expr: ast.UnaryOp) -> Compiled:
        operand = self.compile(expr.operand)
        if expr.op == "NOT":

            def negation(row: Row) -> Any:
                value = operand(row)
                return None if value is None else not value

            return negation
        if expr.op == "-":

            def minus(row: Row) -> Any:
                value = operand(row)
                if value is None:
                    return None
                try:
                    return -value
                except TypeError as exc:
                    raise ExecutionError(
                        f"bad operand for unary '-': {value!r}"
                    ) from exc

            return minus

        def unknown(row: Row) -> Any:
            operand(row)
            raise ExecutionError(f"unknown unary operator {expr.op!r}")

        return unknown

    def _funccall(self, expr: ast.FuncCall) -> Compiled:
        if expr.name in AGGREGATE_NAMES:
            slot = self._aggregate_slots.get(expr)

            def aggregate(row: Row) -> Any:
                if slot is None or row.aggregates is None:
                    raise ExecutionError(
                        f"aggregate {expr.name} used outside GROUP BY context"
                    )
                return row.aggregates[slot]

            return aggregate
        function = SCALAR_FUNCTIONS.get(expr.name)
        if function is None:

            def unknown(row: Row) -> Any:
                raise SQLError(f"unknown function {expr.name!r}")

            return unknown
        args = [self.compile(arg) for arg in expr.args]
        return lambda row: function(*[arg(row) for arg in args])

    def _inlist(self, expr: ast.InList) -> Compiled:
        operand = self.compile(expr.operand)
        items = [self.compile(item) for item in expr.items]
        negated = expr.negated

        def membership(row: Row) -> Any:
            value = operand(row)
            if value is None:
                return None
            saw_null = False
            for item in items:
                candidate = item(row)
                if candidate is None:
                    saw_null = True
                elif sql_compare(value, candidate) == 0:
                    return not negated
            return None if saw_null else negated

        return membership

    def _between(self, expr: ast.Between) -> Compiled:
        operand = self.compile(expr.operand)
        low = self.compile(expr.low)
        high = self.compile(expr.high)
        negated = expr.negated

        def between(row: Row) -> Any:
            value = operand(row)
            bottom = low(row)
            top = high(row)
            if value is None or bottom is None or top is None:
                return None
            inside = (sql_compare(value, bottom) >= 0
                      and sql_compare(value, top) <= 0)
            return inside != negated

        return between

    def _like(self, expr: ast.Like) -> Compiled:
        operand = self.compile(expr.operand)
        pattern = self.compile(expr.pattern)
        negated = expr.negated

        def like(row: Row) -> Any:
            value = operand(row)
            wanted = pattern(row)
            if value is None or wanted is None:
                return None
            return like_match(str(value), str(wanted)) != negated

        return like

    def _isnull(self, expr: ast.IsNull) -> Compiled:
        operand = self.compile(expr.operand)
        negated = expr.negated
        return lambda row: (operand(row) is None) != negated


_COMPILERS: dict[type, Callable[[Evaluator, Any], Compiled]] = {
    ast.Literal: Evaluator._literal,
    ast.Param: Evaluator._param,
    ast.ColumnRef: Evaluator._columnref,
    ast.BinaryOp: Evaluator._binaryop,
    ast.UnaryOp: Evaluator._unaryop,
    ast.FuncCall: Evaluator._funccall,
    ast.InList: Evaluator._inlist,
    ast.Between: Evaluator._between,
    ast.Like: Evaluator._like,
    ast.IsNull: Evaluator._isnull,
}


@lru_cache(maxsize=256)
def _like_regex(pattern: str) -> re.Pattern[str]:
    return re.compile(
        "".join(
            ".*" if ch == "%" else "." if ch == "_" else re.escape(ch)
            for ch in pattern
        ),
        flags=re.DOTALL,
    )


def like_match(value: str, pattern: str) -> bool:
    """SQL LIKE: ``%`` matches any run, ``_`` any single character."""
    return _like_regex(pattern).fullmatch(value) is not None


# -- physical plan nodes --------------------------------------------------------


class PlanNode:
    """Base class for executable plan nodes."""

    def rows(self, evaluator: Evaluator) -> Iterator[Row]:
        raise NotImplementedError

    def explain(self, depth: int = 0) -> str:
        pad = "  " * depth
        lines = [f"{pad}{self.describe()}"]
        for child in self.children():
            lines.append(child.explain(depth + 1))
        return "\n".join(lines)

    def describe(self) -> str:
        return type(self).__name__

    def children(self) -> tuple["PlanNode", ...]:
        return ()


def _selected_positions(
    table: Table, columns: tuple[str, ...] | None
) -> list[tuple[str, int]]:
    """(name, position) pairs a scan materializes; None = every column."""
    schema = table.schema
    if columns is None:
        return [(name, position)
                for position, name in enumerate(schema.column_names)]
    return [(name, schema.column_index(name)) for name in columns]


class SeqScanNode(PlanNode):
    """Full scan of a table; counts rows for the engine's statistics.

    ``columns`` restricts the scan to a subset (projection pushdown):
    only those positions are materialized into the row environment, and
    ``columns_read`` counts the subset width once per scan.
    """

    def __init__(self, table: Table, binding: str, counters: dict[str, int],
                 columns: tuple[str, ...] | None = None):
        self.table = table
        self.binding = binding
        self.counters = counters
        self.columns = columns

    def rows(self, evaluator: Evaluator) -> Iterator[Row]:
        selected = _selected_positions(self.table, self.columns)
        self.counters["columns_read"] += len(selected)
        for _, values in self.table.scan():
            self.counters["rows_scanned"] += 1
            yield Row({
                self.binding: {
                    name: values[position] for name, position in selected
                }
            })

    def describe(self) -> str:
        if self.columns is not None:
            return (
                f"SeqScan({self.table.name} AS {self.binding} "
                f"cols={','.join(self.columns)})"
            )
        return f"SeqScan({self.table.name} AS {self.binding})"


class IndexScanNode(PlanNode):
    """Index lookup (equality) or range scan over a sorted index."""

    def __init__(
        self,
        table: Table,
        binding: str,
        index_name: str,
        counters: dict[str, int],
        equals: ast.Expr | None = None,
        low: ast.Expr | None = None,
        high: ast.Expr | None = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
        columns: tuple[str, ...] | None = None,
    ):
        self.table = table
        self.binding = binding
        self.index_name = index_name
        self.counters = counters
        self.equals = equals
        self.low = low
        self.high = high
        self.low_inclusive = low_inclusive
        self.high_inclusive = high_inclusive
        self.columns = columns

    def rows(self, evaluator: Evaluator) -> Iterator[Row]:
        index = self.table.indexes[self.index_name]
        empty = Row({})
        if self.equals is not None:
            key = evaluator.evaluate(self.equals, empty)
            rowids = index.lookup(key)
        else:
            assert isinstance(index, SortedIndex)
            low = None if self.low is None else evaluator.evaluate(self.low, empty)
            high = None if self.high is None else evaluator.evaluate(self.high, empty)
            rowids = index.range_scan(low, high, self.low_inclusive, self.high_inclusive)
        selected = _selected_positions(self.table, self.columns)
        self.counters["columns_read"] += len(selected)
        for rowid in rowids:
            values = self.table.get(rowid)
            if values is None:
                continue
            self.counters["rows_scanned"] += 1
            yield Row({
                self.binding: {
                    name: values[position] for name, position in selected
                }
            })

    def describe(self) -> str:
        kind = "eq" if self.equals is not None else "range"
        suffix = (
            f" cols={','.join(self.columns)}" if self.columns is not None else ""
        )
        return (
            f"IndexScan({self.table.name} AS {self.binding} "
            f"USING {self.index_name} [{kind}]{suffix})"
        )


class FilterNode(PlanNode):
    def __init__(self, child: PlanNode, predicate: ast.Expr):
        self.child = child
        self.predicate = predicate

    def rows(self, evaluator: Evaluator) -> Iterator[Row]:
        keep = evaluator.compile(self.predicate)
        for row in self.child.rows(evaluator):
            # types.is_truthy, inline: UNKNOWN and FALSE both reject
            if keep(row) is True:
                yield row

    def describe(self) -> str:
        return f"Filter({self.predicate})"

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)


class NestedLoopJoinNode(PlanNode):
    """General join; supports INNER and LEFT outer with any condition."""

    def __init__(
        self,
        left: PlanNode,
        right: PlanNode,
        condition: ast.Expr | None,
        kind: str,
        right_bindings: tuple[str, ...],
        right_columns: dict[str, tuple[str, ...]],
    ):
        self.left = left
        self.right = right
        self.condition = condition
        self.kind = kind
        self.right_bindings = right_bindings
        self.right_columns = right_columns

    def rows(self, evaluator: Evaluator) -> Iterator[Row]:
        right_rows = list(self.right.rows(evaluator))
        joins = (
            None if self.condition is None
            else evaluator.compile(self.condition)
        )
        for left_row in self.left.rows(evaluator):
            matched = False
            for right_row in right_rows:
                merged = Row({**left_row.env, **right_row.env})
                if joins is None or joins(merged) is True:
                    matched = True
                    yield merged
            if not matched and self.kind == "LEFT":
                yield Row({**left_row.env, **self._null_side()})

    def _null_side(self) -> Env:
        return {
            binding: {column: None for column in self.right_columns[binding]}
            for binding in self.right_bindings
        }

    def describe(self) -> str:
        return f"NestedLoopJoin({self.kind} ON {self.condition})"

    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)


class HashJoinNode(PlanNode):
    """Equi-join: builds a hash table on the right input."""

    def __init__(
        self,
        left: PlanNode,
        right: PlanNode,
        left_key: ast.Expr,
        right_key: ast.Expr,
        residual: ast.Expr | None,
        kind: str,
        right_bindings: tuple[str, ...],
        right_columns: dict[str, tuple[str, ...]],
    ):
        self.left = left
        self.right = right
        self.left_key = left_key
        self.right_key = right_key
        self.residual = residual
        self.kind = kind
        self.right_bindings = right_bindings
        self.right_columns = right_columns

    def rows(self, evaluator: Evaluator) -> Iterator[Row]:
        left_key = evaluator.compile(self.left_key)
        right_key = evaluator.compile(self.right_key)
        passes = (
            None if self.residual is None
            else evaluator.compile(self.residual)
        )
        buckets: dict[Any, list[Row]] = {}
        for right_row in self.right.rows(evaluator):
            key = right_key(right_row)
            if key is None:
                continue  # NULL never joins
            buckets.setdefault(_hash_key(key), []).append(right_row)
        for left_row in self.left.rows(evaluator):
            key = left_key(left_row)
            matched = False
            if key is not None:
                for right_row in buckets.get(_hash_key(key), ()):
                    merged = Row({**left_row.env, **right_row.env})
                    if passes is None or passes(merged) is True:
                        matched = True
                        yield merged
            if not matched and self.kind == "LEFT":
                yield Row({**left_row.env, **self._null_side()})

    def _null_side(self) -> Env:
        return {
            binding: {column: None for column in self.right_columns[binding]}
            for binding in self.right_bindings
        }

    def describe(self) -> str:
        return f"HashJoin({self.kind} {self.left_key} = {self.right_key})"

    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)


def _hash_key(value: Any) -> Any:
    """Normalize join keys so 1 and 1.0 land in the same bucket."""
    if isinstance(value, bool):
        return ("num", float(value))
    if isinstance(value, (int, float)):
        return ("num", float(value))
    return value


class _Group:
    """One group being aggregated: its first row, one aggregator per
    call, and where each row's values go — ``feeds`` pairs each distinct
    argument expression with the ``add`` of every aggregator reading it,
    ``per_row`` are the ``add``s of COUNT(*)."""

    __slots__ = ("representative", "aggregators", "feeds", "per_row")

    def __init__(self, representative: Row, aggregators: list[Aggregator],
                 feeds: list, per_row: list):
        self.representative = representative
        self.aggregators = aggregators
        self.feeds = feeds
        self.per_row = per_row


class AggregateNode(PlanNode):
    """GROUP BY + aggregate evaluation (also handles global aggregates)."""

    def __init__(
        self,
        child: PlanNode,
        group_exprs: tuple[ast.Expr, ...],
        aggregate_calls: tuple[ast.FuncCall, ...],
        having: ast.Expr | None,
    ):
        self.child = child
        self.group_exprs = group_exprs
        self.aggregate_calls = aggregate_calls
        self.having = having

    def rows(self, evaluator: Evaluator) -> Iterator[Row]:
        calls = self.aggregate_calls
        group_values = [evaluator.compile(expr) for expr in self.group_exprs]
        # each distinct argument expression is evaluated once per row,
        # however many aggregates read it; COUNT(*) reads none
        arguments = list(
            dict.fromkeys(call.args[0] for call in calls if not call.star)
        )
        argument_values = [evaluator.compile(expr) for expr in arguments]
        reads = [None if call.star else arguments.index(call.args[0])
                 for call in calls]

        def new_group(row: Row) -> _Group:
            aggregators = [
                make_aggregator(call.name, call.distinct, call.star)
                for call in calls
            ]
            fed_by: list[list] = [[] for _ in arguments]
            per_row = []
            for argument, aggregator in zip(reads, aggregators):
                if argument is None:
                    per_row.append(aggregator.add)
                else:
                    fed_by[argument].append(aggregator.add)
            return _Group(row, aggregators,
                          list(zip(argument_values, fed_by)), per_row)

        groups: dict[tuple, _Group] = {}
        # raw grouping values -> their group: equal raw values have equal
        # sort keys, so the canonical key is computed once per distinct
        # raw combination, not once per row
        seen: dict[tuple, _Group] = {}
        for row in self.child.rows(evaluator):
            raw = tuple([value(row) for value in group_values])
            group = seen.get(raw)
            if group is None:
                key = tuple([sort_key(value) for value in raw])
                group = groups.get(key)
                if group is None:
                    group = groups[key] = new_group(row)
                seen[raw] = group
            for value_of, adds in group.feeds:
                value = value_of(row)
                if value is not None:  # every aggregate skips NULL
                    for add in adds:
                        add(value)
            for add in group.per_row:
                add(None)
        if not groups and not self.group_exprs:
            # Global aggregate over an empty input still yields one row.
            groups[()] = new_group(Row({}))
        keep = None if self.having is None else evaluator.compile(self.having)
        for group in groups.values():
            out = Row(group.representative.env,
                      [aggregator.result() for aggregator in group.aggregators])
            if keep is None or keep(out) is True:
                yield out

    def describe(self) -> str:
        return (
            f"Aggregate(groups={len(self.group_exprs)}, "
            f"aggs={[c.name for c in self.aggregate_calls]})"
        )

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)


class SortNode(PlanNode):
    def __init__(self, child: PlanNode, order_by: tuple[ast.OrderItem, ...]):
        self.child = child
        self.order_by = order_by

    def rows(self, evaluator: Evaluator) -> Iterator[Row]:
        materialized = list(self.child.rows(evaluator))
        keys = [
            (evaluator.compile(item.expr), item.descending)
            for item in self.order_by
        ]

        def key(row: Row) -> tuple:
            parts = []
            for value_of, descending in keys:
                value = sort_key(value_of(row))
                parts.append(_Reversed(value) if descending else value)
            return tuple(parts)

        materialized.sort(key=key)
        yield from materialized

    def describe(self) -> str:
        return f"Sort({len(self.order_by)} keys)"

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)


class _Reversed:
    """Wrapper inverting comparison, for DESC sort keys."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def __lt__(self, other: "_Reversed") -> bool:
        return other.value < self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversed) and other.value == self.value


class LimitNode(PlanNode):
    def __init__(self, child: PlanNode, limit: int | None, offset: int | None):
        self.child = child
        self.limit = limit
        self.offset = offset or 0

    def rows(self, evaluator: Evaluator) -> Iterator[Row]:
        produced = 0
        skipped = 0
        for row in self.child.rows(evaluator):
            if skipped < self.offset:
                skipped += 1
                continue
            if self.limit is not None and produced >= self.limit:
                return
            produced += 1
            yield row

    def describe(self) -> str:
        return f"Limit({self.limit} OFFSET {self.offset})"

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)
